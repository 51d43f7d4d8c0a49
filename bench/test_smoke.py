"""Smoke test of the benchmark at a tiny size.

    python -m pytest bench/test_smoke.py -q

Every workload runs through ``run.py --scale smoke``, untraced and traced,
and must emit exactly the metrics ``BENCHMARK.json`` names.  Then every
oracle is handed a deliberately wrong expectation and must object to a
correct answer.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted(workload, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == named


def test_refuses_a_directory_without_sources(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def run_plan(workload: str):
    tracer = tracing.Tracer()
    plan = workloads.plan(workload, 5, 1, 0, "smoke", tracer, ROOT / "src")
    done = []
    for req in plan.rounds[0]:
        try:
            result, error = req.run(tracer.call), None
        except Exception as exc:
            result, error = None, exc
        verdict = req.judge(result, error)
        assert verdict is None or verdict.startswith(workloads.KNOWN), (req.name, verdict)
        done.append((req, result, error))
    return done


def wrong(name, fn):
    """A copy of an oracle that hands its caller a wrong expectation."""
    if name == "check_scan":
        return lambda data, kind, expected, exact, got: fn(
            data, kind, None if expected else (0, 1), exact, got)
    if name == "check_recoded":
        return lambda data, target, span: fn(
            data, oracles.MORSE if target == oracles.TOEPLITZ else oracles.TOEPLITZ, span)
    if name == "check_cli_verify":
        return lambda accepted, rc, out, err: fn(not accepted, rc, out, err)
    if name == "check_cli_malformed":
        return lambda rc, out, err: oracles.check_cli(("", 0), rc, out, err)
    if name == "factor_hashes":
        return lambda images, n: frozenset()
    if name == "window":
        return lambda images, period, seed, radius: (b"", radius)
    if name == "oxtoby":
        return lambda data: bytes(len(data))
    if name.startswith("cli_"):
        return lambda *a: ("wrong\n", 0)
    raise KeyError(name)


PATCHED = ["check_scan", "check_recoded", "check_cli_verify", "check_cli_malformed",
           "factor_hashes", "window", "oxtoby", "cli_generate", "cli_language",
           "cli_check", "cli_image", "cli_preimage", "cli_search", "cli_analyze",
           "cli_derive", "cli_witness"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_oracles_object_to_wrong_expectations(workload, monkeypatch):
    done = run_plan(workload)
    for name in PATCHED:
        monkeypatch.setattr(oracles, name, wrong(name, getattr(oracles, name)))
    for req, result, error in done:
        # searches and rejected certificates are judged against expectations
        # the request holds; the test below gives them wrong ones
        if req.name == "conjugacy.search" or req.classes.get("certificate") == "mutated":
            continue
        verdict = req.judge(result, error)
        if verdict and verdict.startswith(workloads.KNOWN):
            continue
        assert verdict is not None, f"{req.name} accepted an answer against a wrong expectation"


def test_certificate_judges_object_to_wrong_expectations(monkeypatch):
    monkeypatch.setitem(workloads.FOUND, ("morse", "morse"), None)
    monkeypatch.setitem(workloads.FOUND, ("morse", "toeplitz"), workloads.FOUND[("toeplitz", "toeplitz")])
    tracer = tracing.Tracer()
    certify = workloads.Certify(5, "smoke", tracer, ROOT / "src")
    s = certify.system("morse", 1)
    requests = [
        certify.verify(s, "morse", 2, workloads.identity_blocks("morse", 2), False),
        certify.search(s, "morse", 1),
        certify.search(s, "toeplitz", 1),
    ]
    for req in requests:
        assert req.judge(req.run(tracer.call), None) is not None, req.name


def test_scan_oracles_are_exact_on_small_words():
    assert oracles.least_overlap(b"\x00\x00\x00\x01\x01") == (0, 1)
    assert oracles.least_even_square(b"\x00\x01\x00\x01", 0) is None
    assert oracles.least_even_square(b"\x01\x01", 0) == (0, 1)
    assert oracles.check_scan(b"\x00\x00\x00", "overlap", (0, 1), True, (0, 1)) is None
    assert oracles.check_scan(b"\x00\x00\x00", "overlap", (0, 1), True, None) is not None
    assert oracles.check_fibre(b"\x00\x01", oracles.oxtoby_fibre(b"\x00\x01")) is None
    assert oracles.check_fibre(b"\x01\x01", oracles.oxtoby_fibre(b"\x00\x01")) is not None
