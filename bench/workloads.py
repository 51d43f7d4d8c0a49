"""Seeded requests for the three workloads.

A run is a list of rounds, and every round of a workload has the same
composition of request kinds.  Sizes and scales come from decks that deal
fixed value lists in a fixed cyclic order, so runs with different seeds do
exactly the same amount of work; the seed picks the renamings, words,
offsets and the order of requests within a round.  A traced run deals each
round's sizes twice, once for an untraced round and once for a traced one,
so the two halves can be compared.

Every request holds only inputs built here.  Its ``run`` makes the timed
library calls through ``call`` (the tracer), its ``judge`` compares the
answer with an independent one from ``oracles`` outside the timed span.
"""

from __future__ import annotations

import json
import math
import os
import random
import string
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable

import oracles

#: Judge results with this prefix are documented defects of the library:
#: counted in ``fail_ratio`` and named in the report, but not in ``failed``.
KNOWN = "known defect: "


@dataclass
class Request:
    name: str
    classes: dict[str, str]
    run: Callable[[Callable], Any]
    judge: Callable[[Any, BaseException | None], str | None]
    measure: Callable[[Any], dict] | None = None


class Deck:
    """Deals a fixed list of values cyclically, the same for every seed."""

    def __init__(self, values) -> None:
        self.values = list(values)
        self.dealt = 0

    def draw(self):
        value = self.values[self.dealt % len(self.values)]
        self.dealt += 1
        return value


@dataclass
class System:
    family: str
    power: int
    symbols: str
    images: tuple[bytes, ...]
    spec: str
    period: int
    sub: Any = None

    @property
    def base(self) -> tuple[bytes, ...]:
        return oracles.FAMILIES[self.family]


class Systems:
    """Fresh renamings of the base systems, never repeated within a run, so
    every system is a new entry in the library's language cache."""

    SYMBOLS = string.ascii_letters + string.digits

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.used: set[tuple] = set()

    def fresh(self, family: str, power: int) -> System:
        base = oracles.FAMILIES[family]
        while True:
            symbols = "".join(self.rng.sample(self.SYMBOLS, len(base)))
            if (family, power, symbols) not in self.used:
                break
        self.used.add((family, power, symbols))
        images = oracles.power(base, power)
        # every base system has seeds of period 2, so its square has period 1
        period = 2 // power if family != "swap" else 1
        return System(family, power, symbols, images, oracles.spec(images, symbols), period)


@dataclass
class Plan:
    rounds: list[list[Request]]
    traced: list[bool]


# Known search answers, as (k, blocks) over letter indices; every other
# pairing of family and kind has no certificate at any scale.
FOUND = {
    ("morse", "morse"): (0, (b"\x00", b"\x01", b"\x00", b"\x01")),
    ("toeplitz", "toeplitz"): (0, (b"\x00", b"\x01")),
    ("three", "toeplitz"): (1, (b"\x02\x01", b"\x00\x00")),
}
#: Target of each certificate kind; recoded windows must factor into it.
TARGET = {"toeplitz": oracles.TOEPLITZ, "morse": oracles.MORSE}


def identity_blocks(family: str, k: int) -> tuple[bytes, ...]:
    """Blocks of the identity certificate of a base system at scale k."""
    images = oracles.power(oracles.FAMILIES[family], k)
    if family == "morse":
        return (images[0], images[1], images[0], images[1])
    return (images[0], images[1])


def mutate(rng: random.Random, blocks: tuple[bytes, ...], family: str, letters: int):
    """Edit one letter so that one block leaves the language."""
    j, pos, c = rng.choice(oracles.non_factor_flips(blocks, oracles.FAMILIES[family], letters))
    edited = list(blocks)
    edited[j] = blocks[j][:pos] + bytes([c]) + blocks[j][pos + 1 :]
    return tuple(edited)


def plan(workload: str, seed: int, seconds: int, trace: int, scale: str, tracer, src) -> Plan:
    b = {"certify": Certify, "scan": Scan, "cli": Cli}[workload](seed, scale, tracer, src)
    n = max(2, round(seconds / b.nominal_round_s))
    rounds, traced = [], []
    for i in range(math.ceil(n / 2) if trace else n):
        params = b.params()
        copies = (False, True) if trace else (False,)
        for flag in copies:
            rounds.append(b.round(params))
            traced.append(flag)
    return Plan(rounds, traced)


class Workload:
    def __init__(self, seed: int, scale: str, tracer, src) -> None:
        self.rng = random.Random(seed)
        self.systems = Systems(self.rng)
        self.small = scale == "smoke"
        self.tracer = tracer
        self.src = src

    def build(self, fn, *args):
        """Construct a library input object; traced as words.build."""
        return self.tracer.call("words.build", fn, *args)


# -- certify ----------------------------------------------------------------


class Certify(Workload):
    """Verify, search and recode on fresh renamings and squares of Morse,
    Toeplitz and the three-letter system; each system serves a group of
    requests, the first of which meets a cold language cache."""

    nominal_round_s = 5.2

    def __init__(self, *a) -> None:
        super().__init__(*a)
        from morsetoeplitz import (
            MorseCertificate,
            ToeplitzCertificate,
            Word,
            build_graph,
            parse_substitution,
            recode_morse,
            recode_toeplitz,
            search_morse_certificate,
            search_toeplitz_certificate,
            verify_morse_certificate,
            verify_toeplitz_certificate,
        )

        self.lib = {
            "parse": parse_substitution,
            "word": Word,
            "cert": {"toeplitz": ToeplitzCertificate, "morse": MorseCertificate},
            "verify": {"toeplitz": verify_toeplitz_certificate, "morse": verify_morse_certificate},
            "search": {"toeplitz": search_toeplitz_certificate, "morse": search_morse_certificate},
            "recode": {"toeplitz": recode_toeplitz, "morse": recode_morse},
        }
        self.primitive = lambda sub: build_graph(sub).is_primitive()
        # identity certificates at every scale of ks, and at top_k on one of
        # Morse and Toeplitz per round, in turn: k = 4 costs 1 to 2 s
        self.ks = (1,) if self.small else (2, 3)
        self.top_k = 2 if self.small else 4
        self.decks = {
            "power": Deck((1, 2)),
            "top_k_family": Deck(("morse", "toeplitz")),
            # every block of scale 1 is a factor, so mutations start at k = 2
            "mutated_k": Deck((2,) if self.small else (2, 3, 4)),
            "kmax_found": Deck((1, 2, 3)),
            "morse_as_toeplitz": Deck((1, 2) if self.small else (2, 3, 4)),
            # kmax 3 takes about 3 s and heads the latency tail
            "toeplitz_as_morse": Deck((2,) if self.small else (2, 3)),
            "three_as_toeplitz": Deck((1, 2, 3)),
            "three_as_morse": Deck((1, 2)),
        }

    def params(self) -> dict:
        counts = {"power": 3, "mutated_k": 2, "kmax_found": 2}
        return {k: [d.draw() for _ in range(counts.get(k, 1))] for k, d in self.decks.items()}

    def round(self, p: dict) -> list[Request]:
        groups = []
        for i, family in enumerate(("morse", "toeplitz")):
            s = self.system(family, p["power"][i])
            other = "toeplitz" if family == "morse" else "morse"
            reqs = []
            ks = self.ks + ((self.top_k,) if family == p["top_k_family"][0] else ())
            for k in ks:
                reqs.append(self.verify(s, family, k, identity_blocks(family, k), True))
            k = p["mutated_k"][i]
            bad = mutate(self.rng, identity_blocks(family, k), family, 2)
            reqs.append(self.verify(s, family, k, bad, False))
            reqs.append(self.search(s, family, p["kmax_found"][i]))
            reqs.append(self.search(s, other, p[f"{family}_as_{other}"][0]))
            groups.append(reqs)
        s = self.system("three", p["power"][2])
        k, blocks = FOUND[("three", "toeplitz")]
        reqs = [self.search(s, "toeplitz", p["three_as_toeplitz"][0])]
        reqs.append(self.verify(s, "toeplitz", k, blocks, True))
        bad = mutate(self.rng, blocks, "three", 3)
        reqs.append(self.verify(s, "toeplitz", k, bad, False))
        reqs.append(self.search(s, "morse", p["three_as_morse"][0]))
        groups.append(reqs)
        self.rng.shuffle(groups)
        for reqs in groups:
            for j, r in enumerate(reqs):
                r.classes["system"] = "cold" if j == 0 else "reused"
        return [r for reqs in groups for r in reqs]

    def system(self, family: str, power: int) -> System:
        s = self.systems.fresh(family, power)
        s.sub = self.build(self.lib["parse"], s.spec)
        return s

    def certificate(self, s: System, kind: str, k: int, blocks):
        words = [self.build(self.lib["word"], s.sub.alphabet, b) for b in blocks]
        return self.build(self.lib["cert"][kind], k, *words)

    def verify(self, s: System, kind: str, k: int, blocks, accept: bool) -> Request:
        """One request: verify the certificate and, if it is accepted, recode
        a window with its verdict.  The recode takes under a millisecond; as
        a request of its own it would sit between the latency clusters at the
        median and make op_ms.p50 jump from seed to seed."""
        cert = self.certificate(s, kind, k, blocks)
        verify = self.lib["verify"][kind]
        recode = self.lib["recode"][kind]
        index = self.rng.randrange(8)
        span = 1 << k

        def run(call):
            pre = call("graphs.primitive", self.primitive, s.sub)
            verdict = call("conjugacy.verify", verify, s.sub, cert)
            out = None
            if verdict.accepted:
                out = call("conjugacy.recode", recode, cert, verdict, index % len(verdict.phases))
            return pre, verdict, out

        def judge(result, error):
            if error is not None:
                return f"verify or recode raised {type(error).__name__}: {error}"
            pre, verdict, out = result
            if not pre:
                return "primitive system reported non-primitive"
            if verdict.accepted != accept:
                return f"{kind} k={k} verdict {verdict.accepted}, expected {accept}"
            if accept:
                return oracles.check_recoded(out.word.letters, TARGET[kind], span)
            return None

        def measure(result):
            return {"conjugacy.verifications": 1, "conjugacy.accepted": int(result[1].accepted)}

        classes = {"kind": kind, "certificate": "identity" if accept else "mutated"}
        return Request("conjugacy.verify", classes, run, judge, measure)

    def search(self, s: System, kind: str, kmax: int) -> Request:
        search = self.lib["search"][kind]
        expected = FOUND.get((s.family, kind))

        def run(call):
            pre = call("graphs.primitive", self.primitive, s.sub)
            return pre, call("conjugacy.search", search, s.sub, kmax)

        def judge(result, error):
            if error is not None:
                return f"search raised {type(error).__name__}: {error}"
            pre, cert = result
            if not pre:
                return "primitive system reported non-primitive"
            got = None
            if cert is not None:
                blocks = (cert.c0, cert.c1) + ((cert.c0p, cert.c1p) if kind == "morse" else ())
                got = (cert.k, tuple(b.letters for b in blocks))
            if got != expected:
                return f"{kind} search on {s.family} kmax={kmax} gave {got}, expected {expected}"
            return None

        def measure(result):
            return {"conjugacy.searches": 1, "conjugacy.found": int(result[1] is not None)}

        classes = {"kind": kind, "search": "finding" if expected else "exhausting"}
        return Request("conjugacy.search", classes, run, judge, measure)


# -- scan -------------------------------------------------------------------


class Scan(Workload):
    """Window growth, languages, both pattern scanners, the Oxtoby code and
    Oxtoby preimages, all called directly."""

    nominal_round_s = 1.1
    LONG = 1 << 17

    def __init__(self, *a) -> None:
        super().__init__(*a)
        from morsetoeplitz import (
            BINARY,
            PatternWitness,
            Seed,
            Window,
            Word,
            apply_code,
            find_even_square,
            find_overlap,
            language_brute,
            oxtoby_rule,
            parse_substitution,
            preimage_blocks,
        )

        self.lib = dict(
            BINARY=BINARY, Seed=Seed, Window=Window, Word=Word, parse=parse_substitution,
            brute=language_brute, code=apply_code, preimage=preimage_blocks,
            matches=PatternWitness.matches,
            scan={"overlap": find_overlap, "square": find_even_square},
        )
        self.rule = oxtoby_rule()
        div = 16 if self.small else 1
        self.morse = oracles.grow(oracles.MORSE, 0, self.LONG // div)
        self.toeplitz = oracles.grow(oracles.TOEPLITZ, 0, self.LONG // div)
        families = ("morse", "toeplitz", "three")
        self.decks = {
            "window_family": Deck(families),
            "radius": Deck([r // div for r in (4096, 32768, 262144)]),
            "language_family": Deck(families),
            # n <= 64 is also checked against language_brute
            "language_n": Deck((16, 32, 64, 128) if self.small else (48, 512, 1024, 2048)),
            "power": Deck((1, 2)),
            "free": Deck([n // div for n in (1024, 4096, 16384)]),
            "planted": Deck([n // div for n in (2048, 8192)]),
            "random": Deck((128, 256, 512)),
            "code": Deck([n // div for n in (1024, 16384, 65536)]),
            "under": Deck((64, 256, 512, 950)),
            "over": Deck((1024, 1536, 2048)),
        }

    def params(self) -> dict:
        counts = {"window_family": 2, "radius": 2, "language_family": 2, "language_n": 2,
                  "power": 4, "free": 2, "planted": 2, "random": 2, "code": 2, "under": 3, "over": 1}
        return {k: [self.decks[k].draw() for _ in range(n)] for k, n in counts.items()}

    def round(self, p: dict) -> list[Request]:
        reqs = []
        for i in range(2):
            reqs.append(self.window(p["window_family"][i], p["power"][i], p["radius"][i]))
            reqs.append(self.language(p["language_family"][i], p["power"][2 + i], p["language_n"][i]))
        for i, kind in enumerate(("overlap", "square")):
            reqs.append(self.free(kind, p["free"][i]))
            reqs.append(self.planted(kind, p["planted"][i]))
            reqs.append(self.random_word(kind, p["random"][i]))
        reqs += [self.code(n) for n in p["code"]]
        reqs += [self.preimage(n, "under") for n in p["under"]]
        reqs += [self.preimage(n, "over") for n in p["over"]]
        self.rng.shuffle(reqs)
        return reqs

    def slice(self, source: bytes, n: int) -> bytes:
        at = self.rng.randrange(len(source) - n)
        return source[at : at + n]

    def window(self, family: str, power: int, radius: int) -> Request:
        s = self.systems.fresh(family, power)
        sub = self.build(self.lib["parse"], s.spec)
        a, b = self.rng.choice(oracles.admissible_seeds(s.images, s.period))
        seed = self.build(self.lib["Seed"], a, b, s.period)

        def run(call):
            return call("substitution.window", sub.periodic_window, seed, radius)

        def judge(win, error):
            if error is not None:
                return f"window raised {type(error).__name__}: {error}"
            data, origin = oracles.window(s.images, s.period, (a, b), radius)
            if win.word.letters != data or win.origin != origin:
                return f"window of {s.spec} at {seed} differs from iteration"
            return None

        return Request("substitution.window", {"system": "cold"}, run, judge,
                       lambda win: {"substitution.window.letters": len(win)})

    def language(self, family: str, power: int, n: int) -> Request:
        s = self.systems.fresh(family, power)
        sub = self.build(self.lib["parse"], s.spec)

        def run(call):
            return call("substitution.language", sub.language, n)

        def judge(blocks, error):
            if error is not None:
                return f"language raised {type(error).__name__}: {error}"
            expected = oracles.factor_hashes(s.base, n)
            if len(blocks) != len(expected) or {hash(b.letters) for b in blocks} != expected:
                return f"language({n}) of {s.spec} has {len(blocks)} blocks, expected {len(expected)}"
            if n <= 64 and blocks != self.lib["brute"](sub, n):
                return f"language({n}) of {s.spec} differs from language_brute"
            return None

        return Request("substitution.language", {"system": "cold"}, run, judge,
                       lambda blocks: {"substitution.language.blocks": len(blocks)})

    def scan_request(self, kind: str, data: bytes, expected, exact: bool, cls: str) -> Request:
        word = self.build(self.lib["Word"], self.lib["BINARY"], data)
        scan = self.lib["scan"][kind]
        pattern = "overlap" if kind == "overlap" else "square"

        def run(call):
            return call(f"patterns.{cls}", scan, word)

        def judge(hit, error):
            if error is not None:
                return f"{kind} scan raised {type(error).__name__}: {error}"
            if hit is not None and not self.lib["matches"](hit, word):
                return f"witness {hit} does not replay with PatternWitness.matches"
            got = None if hit is None else (hit.start, hit.period)
            return oracles.check_scan(data, pattern, expected, exact, got)

        def measure(hit):
            return {"patterns.scans": 1, "patterns.hits": int(hit is not None),
                    "patterns.letters": len(data)}

        return Request(f"patterns.{cls}", {"word": "pattern-free" if cls == "free" else "witness"},
                       run, judge, measure)

    def free(self, kind: str, n: int) -> Request:
        source = self.morse if kind == "overlap" else self.toeplitz
        return self.scan_request(kind, self.slice(source, n), None, True, "free")

    def random_word(self, kind: str, n: int) -> Request:
        data = bytes(self.rng.getrandbits(1) for _ in range(n))
        if kind == "overlap":
            expected = oracles.least_overlap(data)
        else:
            expected = oracles.least_even_square(data, 0)
        return self.scan_request(kind, data, expected, True, "hit" if expected else "free")

    def planted(self, kind: str, n: int) -> Request:
        if kind == "overlap":
            data = self.slice(self.morse, n)
            p = self.rng.randrange(1, 9)
            q = self.rng.randrange(n - 2 * p - 1)
            data = data[: q + p] + data[q : q + p] + data[q : q + 1] + data[q + 2 * p + 1 :]
        else:
            data = self.slice(self.toeplitz, n)
            while True:
                p = self.rng.randrange(1, 17)
                q = self.rng.randrange(n - 2 * p)
                if data[q : q + p].count(0) % 2 == 0:
                    break
            data = data[: q + p] + data[q : q + p] + data[q + 2 * p :]
        return self.scan_request(kind, data, (q, p), False, "hit")

    def code(self, n: int) -> Request:
        data = self.slice(self.morse, n)
        origin = self.rng.randrange(1, n)
        win = self.build(self.lib["Window"], self.build(self.lib["Word"], self.lib["BINARY"], data), origin)

        def run(call):
            return call("sliding.code", self.lib["code"], self.rule, win)

        def judge(out, error):
            if error is not None:
                return f"apply_code raised {type(error).__name__}: {error}"
            if out.word.letters != oracles.oxtoby(data) or out.origin != origin:
                return "Oxtoby image differs from the direct computation"
            return None

        return Request("sliding.code", {}, run, judge, lambda out: {"sliding.code.letters": len(out)})

    def preimage(self, n: int, cls: str) -> Request:
        data = self.slice(self.toeplitz, n)
        word = self.build(self.lib["Word"], self.lib["BINARY"], data)

        def run(call):
            return call("sliding.preimage", self.lib["preimage"], self.rule, word)

        def judge(fibre, error):
            if isinstance(error, RecursionError) and cls == "over":
                return KNOWN + "preimage_recursion"
            if error is not None:
                return f"preimage raised {type(error).__name__}: {error}"
            return oracles.check_fibre(data, sorted(b.letters for b in fibre))

        return Request("sliding.preimage", {"preimage": f"{cls} 990 letters"}, run, judge,
                       lambda fibre: {"sliding.preimage.blocks": len(fibre)})


# -- cli --------------------------------------------------------------------

README_GENERATE = ["generate", "--sub", "0->01;1->10", "--seed", "0.0", "--period", "2", "--radius", "8"]
README_CHECK = ["check", "--pattern", "overlap", "--word", "00011"]
README_SEARCH = ["search-cert", "--kind", "toeplitz", "--sub", "0->12;1->02;2->10"]

MALFORMED = {
    "bad_spec": ["generate", "--sub", "0->0;1->10", "--seed", "0.0", "--period", "2"],
    "bad_seed": ["generate", "--sub", "0->01;1->00", "--seed", "1.1", "--period", "1"],
    "bad_n": ["language", "--sub", "0->01;1->10", "--n", "0"],
    "bad_window": ["image", "--rule", "oxtoby", "--window", "0110"],
    "bad_kmax": ["search-cert", "--kind", "morse", "--sub", "0->01;1->10", "--kmax", "-1"],
    "bad_cert_json": ["verify-cert", "--sub", "0->01;1->00", "--cert", '{"kind": "toeplitz", "k": 1, '],
    "bad_rule_json": ["image", "--rule", '{"memory": 0, ', "--window", "01.10"],
}
#: Malformed inline JSON currently escapes the error handler: traceback, exit 1.
JSON_DEFECTS = {"bad_cert_json", "bad_rule_json"}


class Cli(Workload):
    """One ``python -m morsetoeplitz.cli`` process at a time over all ten
    subcommands on small inputs, plus malformed requests."""

    nominal_round_s = 4.5

    def __init__(self, *a) -> None:
        super().__init__(*a)
        self.env = dict(os.environ, PYTHONPATH=str(self.src))
        self.words = {f: oracles.grow(oracles.FAMILIES[f], 0, 4096) for f in ("morse", "toeplitz")}
        self.decks = {
            "generate": Deck(("readme", 16, 64, 256)),
            "language": Deck((4, 8, 12)),
            "check": Deck(("readme", 64, 256, 512)),
            "image": Deck((16, 64, 256)),
            "preimage": Deck((16, 64, 256)),
            "verify": Deck([(f, k, bad) for f in ("morse", "toeplitz") for k, bad in ((1, False), (2, False), (2, True))]),
            "search": Deck(("readme", ("toeplitz", "toeplitz", 2), ("morse", "morse", 1),
                                 ("morse", "toeplitz", 2), ("toeplitz", "morse", 1))),
            "analyze": Deck([(f, kind) for f in ("morse", "toeplitz", "three", "swap") for kind in (None, "toeplitz")]),
            "derive": Deck(("morse", "toeplitz", "three")),
            "witness": Deck([(f, n) for f in ("morse", "toeplitz", "three") for n in (2, 3)]),
            "power": Deck((1, 2)),
            "malformed": Deck(sorted(MALFORMED)),
        }

    def params(self) -> dict:
        p = {k: d.draw() for k, d in self.decks.items() if k not in ("power", "malformed")}
        p["power"] = [self.decks["power"].draw() for _ in range(4)]
        p["malformed"] = [self.decks["malformed"].draw() for _ in range(3)]
        return p

    def round(self, p: dict) -> list[Request]:
        power = iter(p["power"])
        reqs = [
            self.generate(p["generate"], next(power)),
            self.language(p["language"], next(power)),
            self.check(p["check"]),
            self.image(p["image"]),
            self.preimage(p["preimage"]),
            self.verify(*p["verify"]),
            self.search(p["search"]),
            self.analyze(*p["analyze"], next(power)),
            self.derive(p["derive"], next(power)),
            self.witness(*p["witness"]),
        ]
        reqs += [self.malformed(name) for name in p["malformed"]]
        self.rng.shuffle(reqs)
        return reqs

    def run_cli(self, argv: list[str]) -> tuple[int, str, str]:
        proc = subprocess.run(
            [sys.executable, "-m", "morsetoeplitz.cli", *argv],
            capture_output=True, text=True, env=self.env, timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def request(self, argv: list[str], judge, cls: str) -> Request:
        name = f"cli.{argv[0]}"

        def run(call):
            return call(name, self.run_cli, argv, error_of=lambda r: "Traceback" if "Traceback" in r[2] else None)

        def judged(result, error):
            if error is not None:
                return f"{argv[0]} failed to run: {type(error).__name__}: {error}"
            return judge(*result)

        return Request(name, {"request": cls}, run, judged)

    def expect(self, argv: list[str], expected: Callable[[], tuple[str, int]]) -> Request:
        return self.request(argv, lambda rc, out, err: oracles.check_cli(expected(), rc, out, err), "well-formed")

    def generate(self, radius, power) -> Request:
        if radius == "readme":
            return self.expect(README_GENERATE, lambda: oracles.cli_generate(oracles.MORSE, "01", 2, (0, 0), 8))
        s = self.systems.fresh(self.rng.choice(("morse", "toeplitz", "three")), power)
        a, b = self.rng.choice(oracles.admissible_seeds(s.images, s.period))
        argv = ["generate", "--sub", s.spec, "--seed", f"{s.symbols[a]}.{s.symbols[b]}",
                "--period", str(s.period), "--radius", str(radius)]
        return self.expect(argv, lambda: oracles.cli_generate(s.images, s.symbols, s.period, (a, b), radius))

    def language(self, n, power) -> Request:
        s = self.systems.fresh(self.rng.choice(("morse", "toeplitz", "three")), power)
        argv = ["language", "--sub", s.spec, "--n", str(n)]
        return self.expect(argv, lambda: oracles.cli_language(s.base, s.symbols, n))

    def check(self, n) -> Request:
        if n == "readme":
            return self.expect(README_CHECK, lambda: oracles.cli_check("00011", "overlap"))
        pattern = self.rng.choice(("overlap", "toeplitz"))
        text = "".join(self.rng.choice("01") for _ in range(n))
        argv = ["check", "--pattern", pattern, "--word", text]
        return self.expect(argv, lambda: oracles.cli_check(text, pattern))

    def long_slice(self, family: str, n: int) -> bytes:
        source = self.words[family]
        at = self.rng.randrange(len(source) - n)
        return source[at : at + n]

    def image(self, n) -> Request:
        data = self.long_slice("morse", n)
        origin = self.rng.randrange(1, n)
        text = oracles.render(data, "01")
        argv = ["image", "--rule", "oxtoby", "--window", text[:origin] + "." + text[origin:]]
        return self.expect(argv, lambda: oracles.cli_image(data, origin))

    def preimage(self, n) -> Request:
        data = self.long_slice("toeplitz", n)
        argv = ["preimage", "--rule", "oxtoby", "--word", oracles.render(data, "01")]
        return self.expect(argv, lambda: oracles.cli_preimage(data))

    def verify(self, family: str, k: int, bad: bool) -> Request:
        s = self.systems.fresh(family, 1)
        blocks = identity_blocks(family, k)
        if bad:
            blocks = mutate(self.rng, blocks, family, 2)
        payload = {"kind": family, "k": k}
        for name, block in zip(("C0", "C1", "C0p", "C1p"), blocks):
            payload[name] = oracles.render(block, s.symbols)
        argv = ["verify-cert", "--sub", s.spec, "--cert", json.dumps(payload)]
        return self.request(argv, lambda rc, out, err: oracles.check_cli_verify(not bad, rc, out, err), "well-formed")

    def search(self, case) -> Request:
        if case == "readme":
            found = FOUND[("three", "toeplitz")]
            return self.expect(README_SEARCH, lambda: oracles.cli_search("012", found, "toeplitz"))
        family, kind, kmax = case
        s = self.systems.fresh(family, 1)
        argv = ["search-cert", "--kind", kind, "--sub", s.spec, "--kmax", str(kmax)]
        found = FOUND.get((family, kind))
        return self.expect(argv, lambda: oracles.cli_search(s.symbols, found, kind))

    def analyze(self, family: str, kind, power: int) -> Request:
        s = self.systems.fresh(family, power if family != "swap" else 1)
        argv = ["analyze", "--sub", s.spec, "--json"] + (["--kind", kind] if kind else [])
        return self.expect(argv, lambda: oracles.cli_analyze(s.images, s.symbols, kind))

    def derive(self, family: str, power: int) -> Request:
        s = self.systems.fresh(family, power)
        rule = {
            "memory": 0,
            "anticipation": 0,
            "input": s.symbols,
            "output": s.symbols,
            "table": {s.symbols[a]: oracles.render(im, s.symbols) for a, im in enumerate(s.images)},
        }
        argv = ["derive", "--sub", s.spec, "--rule", json.dumps(rule), "--r", str(len(s.images[0]))]
        return self.expect(argv, lambda: oracles.cli_derive(s.images, s.symbols))

    def witness(self, family: str, n: int) -> Request:
        s = self.systems.fresh(family, 1)
        argv = ["witness", "--sub", s.spec, "--n", str(n)]
        return self.expect(argv, lambda: oracles.cli_witness(s.images, n))

    def malformed(self, name: str) -> Request:
        def judge(rc, out, err):
            if name in JSON_DEFECTS and rc == 1 and "JSONDecodeError" in err:
                return KNOWN + "cli_json_traceback"
            return oracles.check_cli_malformed(rc, out, err)

        return self.request(MALFORMED[name], judge, "malformed")
