#!/usr/bin/env python3
"""Paired A/B runs of the repository benchmark between two versions.

    python3 tools/ab_pairs.py --parent HEAD~1 --change HEAD
    python3 tools/ab_pairs.py --change . --claim solo_large:solves_per_s
    python3 tools/ab_pairs.py --selftest

Each side is exported from git into its own directory under --work-dir
(`git archive` of a commit, or the tracked and untracked non-ignored files
of the working tree for `--change .`) and builds the benchmark from its
own sources into its own CARGO_TARGET_DIR.  An export is a plain copy: it
registers nothing in the repository, so an interrupted run leaves nothing
to prune.  A commit export is reused while its commit is unchanged, so
its build stays warm.

For every workload in BENCHMARK.json (or each --workload), the script
runs the benchmark command at the file's run_seconds in 10 alternating
pairs: even pairs run the parent first, odd pairs the change.
It prints, per end-to-end metric, each side's median and quartiles, the
pairs the change won (ties count for neither), and a verdict:

  ok          the change's median is not worse than the parent's by more
              than the metric's bound (a fraction of the parent's median);
  REGRESSED   it is;
  unresolved  the parent's own quartile spread exceeds the bound and not
              every change run beats every parent run.

A change whose share of failed operations is larger than the parent's
also fails the comparison, as does any change run the benchmark marks
incorrect (`"correct": false`: a failed operation or a failed side check
such as a reference mismatch).  --claim WORKLOAD:METRIC additionally
requires that, on that workload, the change wins at least 9 of the 10
pairs and the medians differ by more than the parent's interquartile
range.
The exit status is 0 when every check passes.
"""
import argparse
import contextlib
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tarfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600
PAIRS = 10
CLAIM_MIN_WINS = 9


# --- statistics -----------------------------------------------------------

def quantile(xs, q):
    """Linear interpolation between order statistics (R type 7)."""
    if not xs:
        raise ValueError("quantile of no samples")
    s = sorted(xs)
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def quartiles(xs):
    return quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)


def improvement(parent, change, better):
    """How much better `change` is than `parent`; negative when worse."""
    return change - parent if better == "higher" else parent - change


def pair_wins(parent, change, better):
    """(wins, losses, ties) of the change over the parent, pair by pair."""
    if len(parent) != len(change):
        raise ValueError("pairs need equal sample counts")
    wins = losses = 0
    for p, c in zip(parent, change):
        delta = improvement(p, c, better)
        wins += delta > 0
        losses += delta < 0
    return wins, losses, len(parent) - wins - losses


def verdict(parent, change, better, bound):
    """'ok', 'REGRESSED' or 'unresolved' for one metric on one workload."""
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = quantile(change, 0.5)
    scale = abs(p_med)
    if improvement(p_med, c_med, better) < -bound * scale:
        return "REGRESSED"
    separated = all(improvement(p, c, better) > 0
                    for p in parent for c in change)
    if p_q3 - p_q1 > bound * scale and not separated:
        return "unresolved"
    return "ok"


def claim_holds(parent, change, better):
    """The gain rule: >= 9/10 pair wins and a median gap over the parent's IQR."""
    if len(parent) != PAIRS:
        raise ValueError(f"a claim needs exactly {PAIRS} pairs")
    wins, _, _ = pair_wins(parent, change, better)
    p_q1, p_med, p_q3 = quartiles(parent)
    gap = improvement(p_med, quantile(change, 0.5), better)
    return wins >= CLAIM_MIN_WINS and gap > p_q3 - p_q1


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 1.0


def incorrect_runs(runs):
    """Runs the benchmark itself marks incorrect."""
    return sum(not r["correct"] for r in runs)


def selftest():
    assert quantile([3.0], 0.25) == 3.0
    assert quartiles([1, 2, 3, 4, 5]) == (2, 3, 4)
    assert quartiles([4, 1, 3, 2]) == (1.75, 2.5, 3.25)
    assert abs(quantile(list(range(11)), 0.9) - 9.0) < 1e-12

    assert improvement(10, 12, "higher") == 2
    assert improvement(10, 12, "lower") == -2
    assert pair_wins([1, 2, 3], [2, 2, 1], "higher") == (1, 1, 1)
    assert pair_wins([1, 2, 3], [2, 2, 1], "lower") == (1, 1, 1)

    tight = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    assert verdict(tight, [x * 1.2 for x in tight], "lower", 0.25) == "ok"
    assert verdict(tight, [x * 1.3 for x in tight], "lower", 0.25) == "REGRESSED"
    assert verdict(tight, [x * 0.7 for x in tight], "higher", 0.25) == "REGRESSED"
    assert verdict(tight, [x * 0.8 for x in tight], "higher", 0.25) == "ok"
    wide = [50, 150, 60, 140, 100, 100, 55, 145, 100, 100]
    assert verdict(wide, wide, "lower", 0.25) == "unresolved"
    assert verdict(wide, [x / 4 for x in [10, 11, 12, 13, 14, 10, 11, 12, 13, 14]],
                   "lower", 0.25) == "ok"

    gains = [x * 1.5 for x in tight]
    assert claim_holds(tight, gains, "higher")
    assert not claim_holds(tight, gains, "lower")
    two_losses = gains[:8] + tight[8:]
    assert not claim_holds(tight, two_losses, "higher")
    one_loss = gains[:9] + [tight[9] - 1]
    assert claim_holds(tight, one_loss, "higher")
    assert not claim_holds(tight, [x + 0.5 for x in tight], "higher")
    try:
        claim_holds(tight[:9], gains[:9], "higher")
        raise AssertionError("a claim over 9 pairs must be refused")
    except ValueError:
        pass

    assert failed_share([{"attempted": 10, "failed": 1},
                         {"attempted": 30, "failed": 0}]) == 0.025
    assert failed_share([]) == 1.0
    ok = {"correct": True, "attempted": 10, "failed": 0}
    side_check = {"correct": False, "attempted": 10, "failed": 0}
    assert incorrect_runs([ok, ok]) == 0
    assert incorrect_runs([ok, side_check]) == 1
    with contextlib.redirect_stdout(io.StringIO()):
        assert not report_checks({"parent": [ok], "change": [side_check]})
        assert report_checks({"parent": [side_check], "change": [ok]})
        assert report_checks({"parent": [ok], "change": [ok]})
        assert not report_checks({"parent": [ok], "change": [
            {"correct": False, "attempted": 10, "failed": 1}]})
    print("ab_pairs selftest: ok")


# --- checkouts and runs ---------------------------------------------------

def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          stdout=subprocess.PIPE).stdout


def export(rev, dest):
    """Materializes `rev` (a commit, or '.' for the working tree) at dest."""
    stamp = dest / ".ab_pairs_commit"
    sha = None if rev == "." else git("rev-parse", "--verify",
                                      rev + "^{commit}").decode().strip()
    if sha is not None and stamp.is_file() and stamp.read_text() == sha:
        return sha
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    if sha is None:
        listed = git("ls-files", "-z", "--cached", "--others",
                     "--exclude-standard").split(b"\0")
        for name in filter(None, (n.decode() for n in listed)):
            source = ROOT / name
            if source.is_file():
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(source, dest / name)
        return "working tree"
    with tarfile.open(fileobj=io.BytesIO(git("archive", sha))) as tar:
        tar.extractall(dest, **({"filter": "data"}
                                if hasattr(tarfile, "data_filter") else {}))
    stamp.write_text(sha)
    return sha


def run_once(side, bench, workload, seed, seconds, log):
    command = [*bench["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, CARGO_TARGET_DIR=str(side["build"]))
    done = subprocess.run(command, cwd=side["tree"], env=env,
                          stdout=subprocess.PIPE, stderr=log,
                          timeout=RUN_TIMEOUT_S, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"ab_pairs: {side['name']} run failed ({workload}); "
                 f"see {log.name}")
    return json.loads(lines[-1])


def report(workload, runs, bench, claim):
    """Prints one workload's table; returns False when a check fails."""
    parent_runs, change_runs = runs["parent"], runs["change"]
    print(f"\n{workload}: {len(parent_runs)} pairs, "
          f"{bench['run_seconds']} s per run")
    print(f"  {'metric':<18} {'parent q1 / median / q3':>32} "
          f"{'change q1 / median / q3':>32} {'Δmed':>8} {'wins':>6}  verdict")
    passed = True
    for metric in bench["end_to_end"]:
        name, better = metric["name"], metric["better"]
        parent = [r["metrics"][name]["value"] for r in parent_runs]
        change = [r["metrics"][name]["value"] for r in change_runs]
        p, c = quartiles(parent), quartiles(change)
        wins, _, _ = pair_wins(parent, change, better)
        result = verdict(parent, change, better, metric["bound"])
        if name == claim:
            met = claim_holds(parent, change, better)
            result += ", claim " + ("met" if met else "NOT MET")
            passed &= met
        passed &= not result.startswith("REGRESSED")
        delta = (c[1] - p[1]) / abs(p[1]) if p[1] else float("nan")
        print(f"  {name:<18} {p[0]:>10.4g} / {p[1]:>9.4g} / {p[2]:<9.4g} "
              f"{c[0]:>10.4g} / {c[1]:>9.4g} / {c[2]:<9.4g} {delta:>+7.1%} "
              f"{wins:>3}/{len(parent):<2}  {result}")
    return report_checks(runs) and passed


def report_checks(runs):
    """Prints the failed-share and correctness lines; False when either fails."""
    p_fail, c_fail = failed_share(runs["parent"]), failed_share(runs["change"])
    fail_ok = c_fail <= p_fail
    print(f"  failed share: parent {p_fail:.4g}, change {c_fail:.4g}"
          f"{'' if fail_ok else '  REGRESSED'}")
    p_bad, c_bad = incorrect_runs(runs["parent"]), incorrect_runs(runs["change"])
    print(f"  runs marked incorrect: parent {p_bad}, change {c_bad}"
          f"{'  FAILED' if c_bad else ''}")
    return fail_ok and c_bad == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD~1",
                        help="commit to compare against (default HEAD~1)")
    parser.add_argument("--change", default="HEAD",
                        help="commit under test, or '.' for the working tree")
    parser.add_argument("--workload", action="append",
                        help="workload to compare (repeatable; default: "
                             "every workload in BENCHMARK.json)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC",
                        help="end-to-end metric the change claims to improve "
                             "on one workload")
    parser.add_argument("--work-dir", default=".ab_pairs",
                        help="exports, builds, logs and raw results")
    parser.add_argument("--selftest", action="store_true",
                        help="check the statistics code and exit")
    args = parser.parse_args()
    if args.selftest:
        selftest()
        return

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    claim = tuple(args.claim.split(":", 1)) if args.claim else (None, None)
    if args.claim is not None and (claim[0] not in workloads or
                                   claim[-1] not in metrics):
        parser.error("--claim needs a compared workload and one of "
                     f"{sorted(metrics)}, as WORKLOAD:METRIC")

    work = pathlib.Path(args.work_dir)
    work = work if work.is_absolute() else ROOT / work
    sides = {}
    for name, rev in (("parent", args.parent), ("change", args.change)):
        tree = work / name
        sides[name] = {"name": name, "tree": tree, "build": work / f"{name}-build"}
        print(f"# {name}: {rev} -> {export(rev, tree)}", flush=True)

    runs = {w: {"parent": [], "change": []} for w in workloads}
    with open(work / "runs.log", "w") as log:
        for name, side in sides.items():
            # Builds the side and warms its build tree; the result is dropped.
            print(f"# building {name}", flush=True)
            run_once(side, bench, workloads[0], args.seed, 1, log)
        for workload in workloads:
            for i in range(PAIRS):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for name in order:
                    result = run_once(sides[name], bench, workload, args.seed,
                                      bench["run_seconds"], log)
                    runs[workload][name].append(result)
                    values = " ".join(
                        f"{m}={result['metrics'][m]['value']:.4g}"
                        for m in sorted(metrics))
                    print(f"# {workload} pair {i + 1} {name}: {values}",
                          flush=True)
    (work / "runs.json").write_text(json.dumps(runs, indent=1))

    passed = all([report(w, runs[w], bench, claim[1] if w == claim[0] else None)
                  for w in workloads])
    print(f"\nab_pairs: {'PASS' if passed else 'FAIL'} "
          f"(raw runs in {work / 'runs.json'})")
    sys.exit(0 if passed else 1)


if __name__ == "__main__":
    main()
