"""A/B record of the end-to-end benchmark: one parent and one change, each
run with its own unchanged `bench/run.py --trace 0`, in alternating pairs.

    python3 tools/bench_ab.py --parent HEAD --out BENCH_<n>.json
    python3 tools/bench_ab.py --parent A --change B --pairs 10 --seconds 40 --out ab.json

The parent is a commit.  The change is a commit (`--change`) or, by
default, the working tree: its tracked and untracked files, not the ignored
ones.  Each side is copied into its own directory under `--work` (with `git
archive` for a commit, so the repository gets no worktree records) and runs
from there.  Pair i (from 0) runs seed i + 1 on both sides and every
workload named in the change's BENCHMARK.json, parent first when i is even
and change first when it is odd.

The output holds, per workload and end-to-end metric, each side's median
and quartiles, the change's relative move of the median and the number of
pairs the change won (ties count for neither side), with the direction
taken from BENCHMARK.json.  It also holds every run's metrics, gate result
and scale, both sides' revisions and source digests, and the environment
record of the first run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RUN_KEYS = ("scale", "gauge_s", "passes", "loadavg_before", "loadavg_after")


def git(*args) -> str:
    return subprocess.run(["git", "-C", str(REPO), *args], check=True,
                          capture_output=True, text=True).stdout


def export_commit(rev, dest):
    """The tree of commit `rev`, extracted into dest."""
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "-C", str(REPO), "archive", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        sys.exit(f"error: git archive {rev} failed")


def export_working_tree(dest):
    """The working tree's tracked and untracked, not ignored files, copied
    into dest; a tracked file deleted in the working tree is left out."""
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, names.split("\0")):
        if (REPO / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(REPO / name, dest / name)


def source_digest(root) -> str:
    """sha256 over the paths and bytes of every file under src/ and bench/."""
    h = hashlib.sha256()
    files = sorted(p for d in ("src", "bench") for p in (root / d).rglob("*")
                   if p.is_file() and "__pycache__" not in p.parts)
    for path in files:
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def run_bench(root, workload, seed, seconds):
    args = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, cwd=root, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or len(lines) < 2:
        sys.exit(f"error: {' '.join(args[1:])} in {root} exited {proc.returncode}\n"
                 f"{proc.stderr[-4000:]}")
    result, env = json.loads(lines[-1]), json.loads(lines[-2])["env"]
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        **{k: env[k] for k in RUN_KEYS if k in env},
    }, env


def spread(xs):
    """(first quartile, median, third quartile)."""
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def summarize(pairs, metrics):
    out = {}
    for name, spec in metrics.items():
        sides = {}
        for side in ("parent", "change"):
            q1, med, q3 = spread([p[side]["metrics"][name] for p in pairs])
            sides[side] = {"median": med, "q1": q1, "q3": q3}
        sign = 1 if spec["better"] == "higher" else -1
        wins = sum(sign * (p["change"]["metrics"][name] - p["parent"]["metrics"][name]) > 0
                   for p in pairs)
        base = sides["parent"]["median"]
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            **sides,
            "change_vs_parent": (sides["change"]["median"] - base) / base if base else None,
            "change_wins": wins,
            "pairs": len(pairs),
        }
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD", help="parent commit (default HEAD)")
    ap.add_argument("--change", default=None,
                    help="change commit (default: the working tree)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=40, help="bench/run.py --seconds")
    ap.add_argument("--work", type=Path, default=None,
                    help="directory for the two copies (default: a temporary one)")
    ap.add_argument("--out", type=Path, required=True, help="the JSON record to write")
    opts = ap.parse_args()
    if opts.pairs < 2:
        ap.error("--pairs needs at least 2 pairs for quartiles")

    work = Path(tempfile.mkdtemp(prefix="bench-ab-", dir=opts.work))
    trees = {"parent": work / "parent", "change": work / "change"}
    try:
        export_commit(opts.parent, trees["parent"])
        if opts.change is None:
            trees["change"].mkdir()
            export_working_tree(trees["change"])
        else:
            export_commit(opts.change, trees["change"])
        revisions = {
            "parent": {"rev": opts.parent,
                       "commit": git("rev-parse", opts.parent + "^{commit}").strip()},
            "change": ({"rev": "working tree", "commit": None,
                        "base_commit": git("rev-parse", "HEAD").strip()}
                       if opts.change is None else
                       {"rev": opts.change,
                        "commit": git("rev-parse", opts.change + "^{commit}").strip()}),
        }
        for side, tree in trees.items():
            revisions[side]["source_sha256"] = source_digest(tree)
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        metrics = {m["name"]: {"unit": m["unit"], "better": m["better"]}
                   for m in spec["end_to_end"]}
        workloads = [w["name"] for w in spec["workloads"]]

        env, runs = None, {w: [] for w in workloads}
        for i in range(opts.pairs):
            seed = i + 1
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for workload in workloads:
                pair = {"pair": i, "seed": seed, "first": order[0]}
                for side in order:
                    pair[side], run_env = run_bench(trees[side], workload, seed, opts.seconds)
                    env = env or run_env
                    print(f"pair {i} {workload} {side}: correct {pair[side]['correct']}, "
                          f"failed {pair[side]['failed']}", file=sys.stderr)
                runs[workload].append(pair)
    finally:
        shutil.rmtree(work)

    record = {
        "schema": 1,
        "benchmark": "bench/run.py --trace 0",
        "seconds": opts.seconds,
        "pairs": opts.pairs,
        "seeds": [i + 1 for i in range(opts.pairs)],
        **revisions,
        "env": {k: env[k] for k in ("nproc", "cpus_allowed", "python", "click",
                                    "cpu_model", "cpu") if k in env},
        "all_correct": all(p[s]["correct"] and not p[s]["failed"]
                           for pairs in runs.values() for p in pairs
                           for s in ("parent", "change")),
        "workloads": {w: {"metrics": summarize(pairs, metrics), "runs": pairs}
                      for w, pairs in runs.items()},
    }
    opts.out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
