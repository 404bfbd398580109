"""Print every benchmark metric by name and unit, one row per workload.

    python3 bench/report.py                      # latest results in bench/results
    python3 bench/report.py --run --seed 1       # run every workload first
    python3 bench/report.py --base OLD_RESULTS   # also print ratios new/base

End-to-end metrics come from the ``--trace 0`` results and per-layer
metrics from the ``--trace 1`` results, grouped by module.  With ``--base``
each metric is also shown as new/base together with the base value.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("decide", "intertwine", "cli")


def load(directory: Path, trace: int) -> dict[str, dict]:
    """Newest result file per workload for one trace setting."""
    latest: dict[str, tuple[float, dict]] = {}
    for path in directory.glob(f"*_trace{trace}.json"):
        record = json.loads(path.read_text())
        stamp = path.stat().st_mtime
        name = record["workload"]
        if name not in latest or stamp > latest[name][0]:
            latest[name] = (stamp, record)
    return {name: rec for name, (_, rec) in latest.items()}


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e12:
        return str(int(value))
    return f"{value:.4g}"


def _extra(record: dict, key: str) -> str:
    value = record["result"].get(key, record.get(key))
    return str(value) if isinstance(value, bool) else _fmt(value)


def table(title: str, records: dict, names: list[str], extra=()) -> None:
    if not records or not names:
        return
    units = {}
    for rec in records.values():
        for name, m in rec["result"]["metrics"].items():
            units[name] = m["unit"]
    headers = ["workload", *extra, *(f"{n} [{units.get(n, '?')}]" for n in names)]
    rows = []
    for workload in sorted(records, key=lambda w: (w not in WORKLOADS, w)):
        rec = records[workload]
        metrics = rec["result"]["metrics"]
        cells = [workload]
        cells += [_extra(rec, e) for e in extra]
        cells += [_fmt(metrics[n]["value"]) if n in metrics else "-" for n in names]
        rows.append(cells)
    widths = [max(len(r[i]) for r in [headers, *rows]) for i in range(len(headers))]
    print(f"\n{title}")
    for r in [headers, *rows]:
        print("  ".join(c.rjust(w) for c, w in zip(r, widths)))


def ratios(records: dict, base: dict) -> None:
    print("\nratios new/base (base value in parentheses)")
    for workload, rec in sorted(records.items()):
        if workload not in base:
            continue
        old = base[workload]["result"]["metrics"]
        cells = []
        for name, m in rec["result"]["metrics"].items():
            if name in old and old[name]["value"]:
                cells.append(f"{name} {m['value'] / old[name]['value']:.3f}"
                             f" ({_fmt(old[name]['value'])} {m['unit']})")
        print(f"  {workload}: " + "; ".join(cells))


def group(names) -> dict[str, list[str]]:
    groups: dict[str, list[str]] = {}
    for n in names:
        groups.setdefault(n.split(".")[0], []).append(n)
    return groups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results", type=Path, default=HERE / "results")
    parser.add_argument("--base", type=Path, default=None,
                        help="an earlier results directory to compare with")
    parser.add_argument("--run", action="store_true",
                        help="run every workload (trace 0 and 1) first")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    if args.run:
        for workload in WORKLOADS:
            for trace in (0, 1):
                subprocess.run([sys.executable, str(HERE / "run.py"),
                                "--workload", workload, "--seed", str(args.seed),
                                "--seconds", str(spec["run_seconds"]),
                                "--trace", str(trace)],
                               check=True, stdout=subprocess.DEVNULL)

    e2e = load(args.results, 0)
    layers = load(args.results, 1)
    if not e2e and not layers:
        print(f"no results in {args.results}", file=sys.stderr)
        return 1
    table("end-to-end (trace 0)", e2e, [m["name"] for m in spec["end_to_end"]],
          extra=("correct", "failed_ratio", "samples"))
    for module, names in group(m["name"] for m in spec["per_layer"]).items():
        table(f"per-layer: {module} (trace 1)", layers, names)
    if args.base:
        ratios(e2e, load(args.base, 0))
        ratios(layers, load(args.base, 1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
