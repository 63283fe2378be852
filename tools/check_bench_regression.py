#!/usr/bin/env python3
"""Fail CI when the newest benchmark run regresses on throughput.

Diffs the newest ``BENCH_*.json`` file (pytest-benchmark
``--benchmark-json`` output, as produced by ``make nightly``) against
the newest earlier one *from the same host* and exits non-zero when any
benchmark's throughput dropped by more than the threshold (default
10%). The host fingerprint is pytest-benchmark's ``machine_info``: CPU
count, CPU brand and Python version. A 2-core baseline says nothing
about a 64-core run, so files from other hosts are never compared.

Throughput metric per benchmark (higher is better), one convention:
``extra_info.throughput`` in ``extra_info.unit`` when the benchmark
records its own rate (e.g. simulated MACs, design configurations,
queue jobs or guards per second, or the inverse of an end-to-end
wall-clock), else ``1 / stats.mean``, the plain call rate in runs/s.
A benchmark whose unit changes between the two files is reported as
METRIC-CHANGED and not compared.

Usage::

    python tools/check_bench_regression.py [--dir DIR] [--threshold 0.10]
    python tools/check_bench_regression.py --candidate RUN.json.tmp

Without ``--candidate`` the newest promoted BENCH_*.json file is diffed
against the newest earlier promoted file from its host (both
necessarily passed their own gate); with no such file there is nothing
to check. With ``--candidate`` the given un-promoted run is diffed
against the newest promoted baseline from its host — the ``make bench``
flow, which only promotes the candidate to BENCH_*.json after this
check passes, so a regressed run can never become the baseline that
masks its own regression. A candidate from a host with no promoted
baseline becomes that host's first baseline.

Benchmarks present in only one of the two files are reported but never
fail the check (suites grow across PRs).
"""

from __future__ import annotations

import argparse
import datetime
import json
import pathlib
import sys
from typing import Dict, List, Optional, Tuple

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.obs.logs import configure_logging, output_logger  # noqa: E402

DEFAULT_THRESHOLD = 0.10


def _say(message: str) -> None:
    """Report through the shared stdout payload channel (``-q``-able
    and uniformly configured with the rest of the repo's tooling)."""
    output_logger().info("%s", message)


class BenchFileError(RuntimeError):
    """An unparsable BENCH_*.json would disturb the newest-pair diff."""


def find_bench_files(
    directory: pathlib.Path,
) -> Tuple[List[Tuple[pathlib.Path, dict]], List[pathlib.Path]]:
    """``(readable, unreadable)`` BENCH_*.json files.

    Readable entries are ``(path, parsed payload)`` pairs, oldest first
    (by recorded datetime, then mtime as the tiebreaker for hand-copied
    files) — the payload is returned so the comparison does not re-read
    the files."""
    entries = []
    unreadable = []
    for path in directory.glob("BENCH_*.json"):
        try:
            payload = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            unreadable.append(path)
            continue
        mtime = path.stat().st_mtime
        # A missing/null datetime (schema drift, hand-edited file) falls
        # back to an ISO stamp derived from mtime, so the file still
        # ranks chronologically against properly stamped ones instead of
        # silently sorting oldest (or crashing the sort on None).
        stamp = (payload.get("datetime")
                 or datetime.datetime.fromtimestamp(mtime).isoformat())
        entries.append((stamp, mtime, path, payload))
    entries.sort(key=lambda e: e[:2])
    return [(path, payload) for _, _, path, payload in entries], unreadable


def host_fingerprint(payload: dict) -> Tuple[object, object, object]:
    """``(cpu count, cpu brand, python version)`` from pytest-benchmark's
    ``machine_info``; two runs are comparable only when these match.
    Files without ``machine_info`` share the all-``None`` fingerprint."""
    machine = payload.get("machine_info") or {}
    cpu = machine.get("cpu") or {}
    return (cpu.get("count"), cpu.get("brand_raw") or cpu.get("brand"),
            machine.get("python_version"))


def describe_host(payload: dict) -> str:
    count, brand, python = host_fingerprint(payload)
    return f"{count} x {brand}, Python {python}"


def newest_same_host(
    files: List[Tuple[pathlib.Path, dict]], payload: dict,
) -> Optional[Tuple[pathlib.Path, dict]]:
    """The newest ``(path, payload)`` of ``files`` (oldest first) whose
    host fingerprint matches ``payload``'s, or ``None``."""
    host = host_fingerprint(payload)
    for path, data in reversed(files):
        if host_fingerprint(data) == host:
            return path, data
    return None


def check_unreadable(baseline: Optional[pathlib.Path],
                     unreadable: List[pathlib.Path],
                     strict: bool = True) -> None:
    """Hard-fail only when a corrupt file could belong to the compared
    pair: a truncated latest artifact must fail the gate, but a
    months-old damaged file should not block it forever (it is reported
    as a warning instead).

    ``baseline`` is the comparison baseline (or, when there is none,
    the newest readable file; ``None`` when nothing is readable, which
    makes every unreadable artifact suspect). Anything at least as new
    could have displaced the compared pair.

    ``strict=False`` (candidate mode) always downgrades to warnings:
    the candidate comparison runs against the newest *readable*
    same-host baseline regardless, and failing would wedge the gate
    permanently — promotions are the only thing that ages a damaged
    promoted file out of relevance.

    A corrupt file carries no readable ``datetime``, so its age is
    judged by filesystem mtime against the baseline file's mtime — a
    best-effort heuristic. Tooling that rewrites mtimes (fresh
    checkouts, cp without -p) can mis-age files either way; when in
    doubt the nightly log's warning/error line names the file to
    inspect."""
    if not unreadable:
        return
    cutoff = float("-inf") if baseline is None else baseline.stat().st_mtime
    fresh = [p for p in unreadable if p.stat().st_mtime >= cutoff]
    if fresh and strict:
        names = ", ".join(p.name for p in fresh)
        raise BenchFileError(
            f"unreadable benchmark file(s) newer than the comparison "
            f"baseline: {names}")
    for path in unreadable:
        age = "" if path in fresh else "stale "
        _say(f"warning: ignoring {age}unreadable benchmark file "
             f"{path.name}")


def throughput_of(record: dict) -> Optional[Tuple[float, str]]:
    """(higher-is-better throughput, unit) of one benchmark: its
    recorded ``extra_info`` throughput and unit, else its call rate."""
    extra = record.get("extra_info") or {}
    throughput, unit = extra.get("throughput"), extra.get("unit")
    if (isinstance(throughput, (int, float)) and throughput > 0
            and isinstance(unit, str) and unit):
        return float(throughput), unit
    mean = (record.get("stats") or {}).get("mean")
    if isinstance(mean, (int, float)) and mean > 0:
        return 1.0 / float(mean), "runs/s"
    return None


def load_throughputs(data: dict) -> Dict[str, Tuple[float, str]]:
    out: Dict[str, Tuple[float, str]] = {}
    for record in data.get("benchmarks", []):
        name = record.get("fullname") or record.get("name")
        metric = throughput_of(record)
        if name and metric:
            out[name] = metric
    return out


def compare(old: Dict[str, Tuple[float, str]],
            new: Dict[str, Tuple[float, str]],
            threshold: float) -> Tuple[List[str], List[str], int]:
    """(report lines, regression lines, compared count) for the shared
    benchmark set."""
    lines: List[str] = []
    regressions: List[str] = []
    compared = 0
    for name in sorted(set(old) | set(new)):
        if name not in old:
            lines.append(f"  NEW      {name}")
            continue
        if name not in new:
            lines.append(f"  REMOVED  {name}")
            continue
        old_tp, label = old[name]
        new_tp, new_label = new[name]
        if label != new_label:
            # e.g. a benchmark gained/lost its recorded throughput; the
            # units are incomparable, so treat it like a fresh baseline.
            lines.append(f"  METRIC-CHANGED  {name}  "
                         f"({label} -> {new_label}, not compared)")
            continue
        compared += 1
        delta = (new_tp - old_tp) / old_tp
        tag = "ok"
        if delta < -threshold:
            tag = "REGRESSION"
            regressions.append(
                f"{name}: {old_tp:.4g} -> {new_tp:.4g} {label} "
                f"({delta * 100:+.1f}%)")
        lines.append(f"  {tag:<10} {name}  {old_tp:.4g} -> {new_tp:.4g} "
                     f"{label} ({delta * 100:+.1f}%)")
    return lines, regressions, compared


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="diff the newest BENCH_*.json file against the "
                    "newest earlier one from the same host for "
                    "throughput regressions")
    parser.add_argument("--dir", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent,
                        help="directory holding BENCH_*.json "
                             "(default: repo root)")
    parser.add_argument("--threshold", type=float,
                        default=DEFAULT_THRESHOLD,
                        help="relative throughput drop that fails the "
                             "check (default 0.10 = 10%%)")
    parser.add_argument("--candidate", type=pathlib.Path, default=None,
                        help="un-promoted benchmark json to gate against "
                             "the newest promoted same-host baseline "
                             "(make bench promotes it only if this check "
                             "passes)")
    args = parser.parse_args(argv)
    configure_logging()
    if not 0 < args.threshold < 1:
        parser.error("--threshold must be in (0, 1)")

    files, unreadable = find_bench_files(args.dir)
    if args.candidate is not None:
        new_path = args.candidate
        try:
            new_data = json.loads(new_path.read_text())
        except (json.JSONDecodeError, OSError) as exc:
            _say(f"error: unreadable candidate {new_path.name}: {exc}")
            return 2
        baseline = newest_same_host(files, new_data)
    else:
        if files:
            new_path, new_data = files[-1]
            baseline = newest_same_host(files[:-1], new_data)
        else:
            baseline = None
    reference = baseline or (files[-1] if files else None)
    try:
        check_unreadable(None if reference is None else reference[0],
                         unreadable, strict=args.candidate is None)
    except BenchFileError as exc:
        _say(f"error: {exc}")
        return 2
    if args.candidate is not None and baseline is None:
        if not files and unreadable:
            # Baselines exist but none is readable: accepting the
            # candidate unchecked could promote a regressed run as
            # the new baseline — exactly what this gate prevents.
            _say("error: no readable promoted baseline (all "
                 f"{len(unreadable)} BENCH file(s) are corrupt); "
                 "repair or remove them before promoting "
                 f"{new_path.name}")
            return 2
        if not load_throughputs(new_data):
            # An empty first baseline would wedge every later run
            # on the compared-nothing check.
            _say(f"error: candidate {new_path.name} has no usable "
                 "benchmark records; refusing to promote it as the "
                 "first baseline")
            return 2
        where = "from this host " if files else ""
        _say(f"no promoted baseline {where}under {args.dir} "
             f"({describe_host(new_data)}); accepting {new_path.name} "
             "as this host's first one")
        return 0
    if baseline is None:
        if len(files) < 2:
            _say(f"need two BENCH_*.json files under {args.dir} to "
                 f"compare; found {len(files)} — nothing to check")
        else:
            _say(f"no earlier BENCH_*.json from the host of "
                 f"{new_path.name} ({describe_host(new_data)}) — "
                 "nothing to check")
        return 0
    old_path, old_data = baseline
    old = load_throughputs(old_data)
    new = load_throughputs(new_data)
    _say(f"comparing {old_path.name} (old) vs {new_path.name} (new) on "
         f"{describe_host(new_data)}, threshold "
         f"{args.threshold * 100:.0f}%")
    lines, regressions, compared = compare(old, new, args.threshold)
    _say("\n".join(lines))
    if compared == 0:
        # Two artifacts but nothing comparable (empty/filtered newest
        # run, schema drift): a green exit here would mean the gate
        # checked nothing while looking like it passed.
        _say("\nerror: no comparable benchmarks between "
             f"{old_path.name} and {new_path.name} — the gate "
             "compared nothing")
        return 2
    if regressions:
        _say(f"\n{len(regressions)} throughput regression(s) beyond "
             f"{args.threshold * 100:.0f}%:")
        for line in regressions:
            _say(f"  {line}")
        return 1
    _say("\nno throughput regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
