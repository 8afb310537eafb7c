#!/usr/bin/env python3
"""Alternating parent/change runs of the repository benchmark, and their summary.

    python3 tools/perf_pairs.py run --parent ../parent --change . \\
        --experiment claim --workload solve-large --seed 1 --pairs 10 \\
        --seconds 30 --out bench/trajectory/PERF_new.jsonl
    python3 tools/perf_pairs.py summarize bench/trajectory/PERF_*.jsonl

`run` runs `perfbench/run.py` in two checkouts, the parent commit and the
change, in pairs: pair k runs the parent first when k is even and the change
first when k is odd, so a drift in host speed weighs on both sides alike.
After both runs of a pair succeed it appends one JSON line per run to --out:

    experiment, side ("parent" or "change"), workload, seed, seconds, trace,
    pair, first_in_pair, host, revision, result

where host and revision are the run's "# host" and "# revision" lines and
result is its JSON result line. A failed run stops the command; the pairs
written before it stay.

`summarize` reads such files and prints, for each file, experiment,
workload, seed, run length and metric, the median and quartiles of each side and how
many pairs the change won under the metric's direction in BENCHMARK.json
(pairs with equal values are counted as ties). A file may carry more sides
than these two, such as a variant measured beside them: each is compared
with the parent, or with the change where the experiment has no parent run.
It exits 1, naming the file and line, when a line is malformed or a pair
lacks a side its experiment has elsewhere (a side without its pair).
Standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
FIELDS = ("experiment", "side", "workload", "seed", "seconds", "trace", "pair",
          "first_in_pair", "host", "revision", "result")


class FormatError(Exception):
    pass


# ------------------------------------------------------------------- run

def run_once(checkout, args):
    """One benchmark run in `checkout`; returns (host, revision, result)."""
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    run = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(run.stderr[-4000:])
        raise RuntimeError(f"{checkout}: perfbench/run.py exited {run.returncode} "
                           "without a result line")
    header = {}
    for line in lines:
        for key in ("host", "revision"):
            if line.startswith(f"# {key} "):
                header[key] = line[2:].strip()
    if set(header) != {"host", "revision"}:
        raise RuntimeError(f"{checkout}: the run printed no '# host' or '# revision' line")
    return header["host"], header["revision"], json.loads(lines[-1])


def command_run(args):
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    for side, path in checkouts.items():
        if not os.path.isfile(os.path.join(path, "perfbench", "run.py")):
            sys.exit(f"--{side} {path}: no perfbench/run.py there")
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        lines = []
        for side in order:
            host, revision, result = run_once(checkouts[side], args)
            lines.append({
                "experiment": args.experiment, "side": side, "workload": args.workload,
                "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                "pair": pair, "first_in_pair": order[0], "host": host,
                "revision": revision, "result": result,
            })
            print(f"pair {pair} {side}: " + describe(result), file=sys.stderr, flush=True)
        with open(args.out, "a") as out:
            for line in lines:
                out.write(json.dumps(line, separators=(",", ":")) + "\n")
    return 0


def describe(result):
    metrics = result.get("metrics", {})
    shown = [name for name in ("throughput_rps", "slo_qps", "setup_s") if name in metrics]
    if not shown:
        shown = sorted(metrics)[:3]
    return ", ".join(f"{name} {metrics[name]['value']:.6g}" for name in shown)


# ------------------------------------------------------------- summarize

def load_directions():
    """Metric name -> "higher" or "lower", from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {row["name"]: row["better"] for row in spec["end_to_end"] + spec["per_layer"]}


def check_line(record, where):
    if not isinstance(record, dict):
        raise FormatError(f"{where}: not a JSON object")
    missing = [field for field in FIELDS if field not in record]
    if missing:
        raise FormatError(f"{where}: missing {', '.join(missing)}")
    if not isinstance(record["side"], str) or not record["side"]:
        raise FormatError(f"{where}: side is not a name")
    if record["first_in_pair"] is not None and not isinstance(record["first_in_pair"], str):
        raise FormatError(f"{where}: first_in_pair is neither a side nor null")
    if not isinstance(record["pair"], int) or isinstance(record["pair"], bool):
        raise FormatError(f"{where}: pair is not an integer")
    metrics = record["result"].get("metrics") if isinstance(record["result"], dict) else None
    if not isinstance(metrics, dict):
        raise FormatError(f"{where}: result has no metrics object")
    for name, metric in metrics.items():
        value = metric.get("value") if isinstance(metric, dict) else None
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise FormatError(f"{where}: metric {name} has no numeric value")


def load_groups(paths):
    """Groups runs by file, experiment, workload, seed, run length and trace; each
    group maps pair -> {side: record}. Raises FormatError on a malformed line,
    a side recorded twice in a pair, or a pair whose sides differ from the
    rest of its group's (a side without its pair)."""
    groups = {}
    origin = {}
    for path in paths:
        with open(path) as handle:
            for line_number, text in enumerate(handle, 1):
                where = f"{path}:{line_number}"
                if not text.strip():
                    continue
                try:
                    record = json.loads(text)
                except json.JSONDecodeError as error:
                    raise FormatError(f"{where}: not JSON ({error.msg})") from None
                check_line(record, where)
                key = (os.path.basename(path), record["experiment"], record["workload"],
                       record["seed"], record["seconds"], record["trace"])
                pair = groups.setdefault(key, {}).setdefault(record["pair"], {})
                if record["side"] in pair:
                    raise FormatError(f"{where}: a second {record['side']} run in pair "
                                      f"{record['pair']}")
                pair[record["side"]] = record
                origin[(key, record["pair"], record["side"])] = where
    for key, pairs in groups.items():
        sides = set().union(*(set(runs) for runs in pairs.values()))
        for pair, runs in pairs.items():
            where = origin[(key, pair, next(iter(runs)))]
            if len(sides) < 2 or set(runs) != sides:
                absent = sorted(sides - set(runs)) or ["another side"]
                raise FormatError(f"{where}: pair {pair} of {key[1]} {key[2]} has no "
                                  f"{', '.join(absent)} run")
            first = {run["first_in_pair"] for run in runs.values()}
            if len(first) != 1 or not first <= sides | {None}:
                raise FormatError(f"{where}: pair {pair} of {key[1]} {key[2]} disagrees "
                                  "on first_in_pair")
    return groups


def number(value):
    return f"{value:.0f}" if abs(value) >= 1000 else f"{value:.4g}"


def spread(values):
    median = statistics.median(values)
    if len(values) < 2:
        return f"{number(median)} [{number(median)}, {number(median)}]"
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{number(median)} [{number(q1)}, {number(q3)}]"


def side_order(sides):
    """The baseline first (the parent, else the change), then the change,
    then any other side by name."""
    return sorted(sides, key=lambda side: (side != "parent", side != "change", side))


def summary_rows(groups, directions):
    """One line per group and metric: each side's median [q1, q3], and for
    every side but the baseline the pairs it won against the baseline."""
    for key in sorted(groups, key=lambda k: tuple(str(part) for part in k)):
        source, experiment, workload, seed, seconds, trace = key
        pairs = [groups[key][pair] for pair in sorted(groups[key])]
        sides = side_order(pairs[0])
        names = []
        for runs in pairs:
            for run in runs.values():
                names.extend(n for n in run["result"]["metrics"] if n not in names)
        for name in names:
            values = {side: [run[side]["result"]["metrics"][name]["value"]
                             for run in pairs if name in run[side]["result"]["metrics"]]
                      for side in sides}
            if not all(values.values()):
                continue
            parts = [f"{sides[0]} {spread(values[sides[0]])}"]
            for side in sides[1:]:
                won = tied = compared = 0
                for runs in pairs:
                    metrics = [runs[s]["result"]["metrics"].get(name) for s in (sides[0], side)]
                    if None in metrics:
                        continue
                    compared += 1
                    base, other = (metric["value"] for metric in metrics)
                    if base == other:
                        tied += 1
                    elif (other > base) == (directions.get(name) == "higher"):
                        won += 1
                if name in directions:
                    verdict = f"won {won} of {compared}" + (f", {tied} tied" if tied else "")
                else:
                    verdict = "no direction"
                parts.append(f"{side} {spread(values[side])} ({verdict})")
            yield (f"{source}  {experiment}  {workload}  seed {seed}  {number(seconds)} s  "
                   f"trace {trace}  "
                   f"{name}: " + " -> ".join(parts))


def command_summarize(args):
    try:
        groups = load_groups(args.files)
    except (OSError, FormatError) as error:
        print(f"perf_pairs: {error}", file=sys.stderr)
        return 1
    directions = load_directions()
    for row in summary_rows(groups, directions):
        print(row)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="alternate parent and change runs, append JSON lines")
    run.add_argument("--parent", required=True, help="checkout of the parent commit")
    run.add_argument("--change", required=True, help="checkout of the change")
    run.add_argument("--experiment", required=True, help="label, e.g. claim or held-out")
    run.add_argument("--workload", required=True,
                     choices=["solve-large", "serve-poisson", "serve-hot"])
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--pairs", type=int, default=10)
    run.add_argument("--seconds", type=float, default=30.0)
    run.add_argument("--trace", type=int, choices=[0, 1], default=0)
    run.add_argument("--out", required=True, help="JSON-lines file to append to")
    run.set_defaults(handler=command_run)

    summarize = commands.add_parser("summarize", help="medians, quartiles and pairs won")
    summarize.add_argument("files", nargs="+", help="PERF_*.jsonl files")
    summarize.set_defaults(handler=command_summarize)

    args = parser.parse_args()
    if args.command == "run" and args.seconds == int(args.seconds):
        args.seconds = int(args.seconds)  # 30, as the committed files record it
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
