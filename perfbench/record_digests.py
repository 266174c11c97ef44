"""Record the CSV digests of each workload's warm-up operation (the first
operation of the default seed) into digests.json.

    python3 perfbench/record_digests.py

Rerun only when a change is meant to alter result CSVs, and say so in that
change: run.py fails every run whose warm-up digests differ.
"""

import json

import run


def main():
    run.import_uwbsim()
    import workloads
    out = {}
    for name in workloads.WORKLOADS:
        cfg = workloads.make_config(name, workloads.op_seed(workloads.DEFAULT_SEED, 0))
        out_dir = str(run.OUT / f"{name}-csv")
        workloads.clear_dir(out_dir)
        workloads.run_operation(cfg, out_dir)
        problems = workloads.check_outputs(workloads.expected(cfg), out_dir)
        if problems:
            raise SystemExit(f"{name}: {problems}")
        out[name] = workloads.csv_digests(out_dir)
    with open(run.BENCH_DIR / "digests.json", "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
