"""brauercalc benchmark: cold-process workloads with independent output checks.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --all --seconds 30            # every workload
    python3 bench/run.py --all --size smoke --seconds 1

Run from the root of a source checkout; the package is imported from
`src/`.  Every job is a fresh `python3 bench/worker.py` process, started one
at a time by this single-threaded process (a closed loop with one client),
because the engine memo, the fingerprint and consistency memos and the
coefficient variable registry are process-global: a second job in the same
process would measure a warm cache that no CLI or `verify` user sees.

A workload is a cycle of job kinds.  Cycles repeat, in an order drawn from
`--seed`, until `--seconds` is spent; a job is not started when the last job
of its kind says it would end past the deadline.  The output checks a job
runs after its timed section (`check_s`) count neither in that estimate nor
against `--seconds`.  The inputs each job gets are drawn from the seed too,
and only those inputs reach the program.

With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` every cycle runs each kind once untraced and once traced, and the
last line carries the per-layer metrics and the tracing overhead.  The lines
before it print every metric by name and unit.  See bench/README.md.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(BENCH, "worker.py")
MARKER = "BENCH-JOB "
JOB_TIMEOUT_S = 150

# Input sizes.  `smoke` is for the benchmark's own tests: every path runs,
# in seconds.
SIZES = {
    "full": {"sweep_width": 4, "sweep_letters": 4, "table_n": 4,
             "roundtrip_dots": 12, "roundtrip_batch": 2000,
             "session_width": 6, "session_letters": 6},
    "smoke": {"sweep_width": 3, "sweep_letters": 3, "table_n": 2,
              "roundtrip_dots": 6, "roundtrip_batch": 20,
              "session_width": 4, "session_letters": 2},
}

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s",
             "op_p50_ms": "ms", "peak_rss_mb": "MB"}


# ---------------------------------------------------------------------------
# Spawning jobs


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Fixed string hashing, so the per-layer counts repeat exactly.
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(job, traced, stdin=None, argv=()):
    """Run one worker to completion; return (exit code, stdout, stderr, life_s)."""
    t = time.monotonic_ns()
    proc = subprocess.Popen(
        [sys.executable, WORKER, str(t), "1" if traced else "0", job, *argv],
        stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT, env=_env(),
    )
    try:
        out, err = proc.communicate(stdin, timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
    life = (time.monotonic_ns() - t) / 1e9
    return proc.returncode, out.decode(), err.decode(), life


# ---------------------------------------------------------------------------
# Workloads.  Each defines its job kinds, draws a job's input from the rng,
# runs it and checks the output.  `run_job` returns a record with at least
# ops, failed, life_s; timed jobs add wall_s, setup_s, startup_s, maxrss_kb.


def count_words(max_width, max_letters):
    """Words `check_local_confluence` visits, enumerated independently: every
    letter sequence of at most `max_letters` letters from each domain width
    up to `max_width`, with cups only while the width stays in bound."""
    memo = {}

    def visit(width, depth):
        key = (width, depth)
        if key not in memo:
            n = 1
            if depth < max_letters:
                n += max(width - 1, 0) * visit(width, depth + 1)
                n += max(width - 1, 0) * visit(width - 2, depth + 1)
                if width + 2 <= max_width:
                    n += (width + 1) * visit(width + 2, depth + 1)
            memo[key] = n
        return memo[key]

    return sum(visit(d, 0) for d in range(max_width + 1))


def _job_record(code, out, err, life, ops):
    if code != 0:
        sys.stderr.write("job failed (exit %s): %s\n" % (code, err.strip()[-2000:]))
        return {"ops": ops, "failed": ops, "life_s": life, "error": True}
    rec = json.loads(out)
    rec.update(ops=ops, life_s=life)
    return rec


class Sweep:
    """Local-confluence verdicts: two consistent presets and a corrupted one."""

    kinds = ("bwm", "periplectic_q", "corrupted")

    def __init__(self, size):
        self.width, self.letters = size["sweep_width"], size["sweep_letters"]
        self.words = count_words(self.width, self.letters)

    def draw(self, kind, rng):
        return {"record": kind, "max_width": self.width, "max_letters": self.letters}

    def run_job(self, kind, spec, traced):
        rec = _job_record(*spawn("sweep", traced, json.dumps(spec).encode()), self.words)
        if not rec.get("error"):
            found = rec["counterexamples"]
            ok = found >= 1 if kind == "corrupted" else found == 0
            rec["failed"] = 0 if ok else self.words
        return rec


class Tables:
    """Full End(n) multiplication tables, one preset per job."""

    kinds = ("bwm", "periplectic_q", "brauer")

    def __init__(self, size):
        self.n = size["table_n"]
        basis = 1
        for k in range(2 * self.n - 1, 0, -2):
            basis *= k
        self.products = basis * basis
        self.digests = {}

    def draw(self, kind, rng):
        return {"preset": kind, "n": self.n}

    def run_job(self, kind, spec, traced):
        # The first job of a kind checks its table against the references;
        # every later job must give the same table, by value.  The q = 1
        # check alone takes longer than the table.
        spec = dict(spec, check=kind not in self.digests)
        rec = _job_record(*spawn("tables", traced, json.dumps(spec).encode()), self.products)
        if not rec.get("error"):
            first = self.digests.setdefault(kind, rec["digest"])
            if rec["digest"] != first:
                rec["failed"] = self.products
        return rec


class Roundtrip:
    """Standard word of a diagram back through `normalize` under bwm."""

    kinds = ("bwm",)

    def __init__(self, size):
        self.dots, self.batch = size["roundtrip_dots"], size["roundtrip_batch"]

    def draw(self, kind, rng):
        diagrams = []
        for _ in range(self.batch):
            m = rng.randrange(self.dots + 1)
            points = list(range(self.dots))
            rng.shuffle(points)
            match = [0] * self.dots
            for a, b in zip(points[::2], points[1::2]):
                match[a], match[b] = b, a
            diagrams.append([m, self.dots - m, match])
        return {"preset": kind, "diagrams": diagrams}

    def run_job(self, kind, spec, traced):
        return _job_record(*spawn("roundtrip", traced, json.dumps(spec).encode()), self.batch)


class Session:
    """A mix of `brauercalc` CLI calls, each its own process."""

    kinds = ("normalize-brauer", "normalize-bwm", "compose-brauer", "tensor-brauer",
             "map-rescale", "map-vflip", "map-hflip", "classify", "table3-brauer",
             "verify-table1", "verify-wenzl", "readme")

    # Hand-written expectations: the classification's family tags per preset
    # and the README's worked examples.
    CLASSIFY = {
        "brauer": ["Cbb_l_s", "C00_l_s"],
        "periplectic": ["Cb0_bl_s", "C0b_bl_s", "C00_ml_s"],
        "bwm": ["Cbb_l_s"],
        "periplectic_q": ["Cb0_bl_s"],
        "periplectic_q_op": ["C0b_bl_s"],
    }
    README = [
        (["normalize", "-p", "brauer", "a(1)@2 . u(1)@0"], ["delta * B[0,0 | ]"]),
        (["normalize", "-p", "periplectic_q", "s(1)@2 . s(1)@2"],
         ["1 * B[2,2 | 0-2 1-3]", "(q - q^-1) * B[2,2 | 0-3 1-2]"]),
        (["compose", "-p", "brauer", "a(1)@2", "u(1)@0"], ["delta * B[0,0 | ]"]),
        (["tensor", "-p", "brauer", "u(1)@0", "a(1)@2"], ["1 * B[2,2 | 0-1 2-3]"]),
        (["render", "a(1)@2 . s(1)@2 . u(1)@0"], ["/\\", "X", "\\/"]),
    ]
    UNITS = ["1", "t", "-t", "v*t", "t^-1"]

    def __init__(self, size):
        self.width, self.letters = size["session_width"], size["session_letters"]
        from brauercalc import diagram
        from brauercalc.coeff import lp_parse

        self.dg = diagram
        self.lp_parse = lp_parse
        self.delta = lp_parse("delta")

    # -- inputs ------------------------------------------------------------

    def word(self, rng, domain=None):
        w = rng.randrange(self.width - 1) if domain is None else domain
        start, letters = w, []
        for _ in range(rng.randint(1, self.letters)):
            opts = [("cross", r) for r in range(1, w)] + [("cap", r) for r in range(1, w)]
            if w + 2 <= self.width:
                opts += [("cup", r) for r in range(1, w + 2)]
            kind, pos = rng.choice(opts)
            letters.append((kind, pos))
            w += 2 if kind == "cup" else -2 if kind == "cap" else 0
        return start, letters

    @staticmethod
    def dsl(domain, letters):
        """Top factor first, each generator tagged with its input width."""
        parts, w = [], domain
        for kind, pos in letters:
            parts.append("%s(%d)@%d" % ({"cross": "s", "cap": "a", "cup": "u"}[kind], pos, w))
            w += 2 if kind == "cup" else -2 if kind == "cap" else 0
        return " . ".join(reversed(parts)) if parts else "id@%d" % domain

    def oracle(self, domain, letters):
        """(loops, diagram) of a word, by the loop-counting composition oracle."""
        dg = self.dg
        d, w, loops = dg.identity_diagram(domain), domain, 0
        for kind, pos in letters:
            if kind == "cross":
                elem = dg.elem_cross(w, pos)
            elif kind == "cup":
                elem, w = dg.elem_cup(w, pos), w + 2
            else:
                elem, w = dg.elem_cap(w - 2, pos), w - 2
            k, d = dg.compose_oracle(elem, d)
            loops += k
        return loops, d

    def draw(self, kind, rng):
        """(argv, expectation) for one call."""
        if kind == "normalize-brauer":
            dom, ls = self.word(rng)
            return ["normalize", "-p", "brauer", "--format", "json", self.dsl(dom, ls)], \
                ("brauer", self.oracle(dom, ls))
        if kind == "normalize-bwm":
            dom, ls = self.word(rng)
            return ["normalize", "-p", "bwm", "--format", "json", self.dsl(dom, ls)], \
                ("shape", self.oracle(dom, ls)[1])
        if kind == "compose-brauer":
            dom, bottom = self.word(rng)
            mid = self.oracle(dom, bottom)[1].n
            _, top = self.word(rng, domain=mid)
            return ["compose", "-p", "brauer", "--format", "json",
                    self.dsl(mid, top), self.dsl(dom, bottom)], \
                ("brauer", self.oracle(dom, bottom + top))
        if kind == "tensor-brauer":
            (dl, ll), (dr, lr) = self.word(rng), self.word(rng)
            (kl, left), (kr, right) = self.oracle(dl, ll), self.oracle(dr, lr)
            return ["tensor", "-p", "brauer", "--format", "json",
                    self.dsl(dl, ll), self.dsl(dr, lr)], \
                ("brauer", (kl + kr, self.dg.tensor_oracle(left, right)))
        if kind.startswith("map-"):
            functor = kind[4:]
            dom, ls = self.word(rng)
            d = self.oracle(dom, ls)[1]
            argv = ["map", "-p", "bwm" if functor == "rescale" else "periplectic_q",
                    "--functor", functor]
            if functor == "rescale":
                argv += ["--alpha=" + rng.choice(self.UNITS), "--gamma=" + rng.choice(self.UNITS)]
            m, n = (d.n, d.m) if functor == "vflip" else (d.m, d.n)
            return argv + [self.dsl(dom, ls)], ("map", (m, n))
        if kind == "classify":
            name = rng.choice(sorted(self.CLASSIFY))
            return ["classify", "-p", name], ("json", {"families": self.CLASSIFY[name], "consistent": True})
        if kind == "table3-brauer":
            return ["table", "3", "-p", "brauer", "--format", "json"], ("table", 3)
        if kind == "verify-table1":
            return ["verify", "table1"], ("table1", None)
        if kind == "verify-wenzl":
            return ["verify", "wenzl"], ("wenzl", None)
        argv, lines = rng.choice(self.README)
        return argv, ("text", lines)

    # -- checks ------------------------------------------------------------

    def _brauer_ok(self, data, loops, d):
        """A normal form's JSON equals delta^loops times the oracle diagram;
        the coefficient is compared by value."""
        pairs = sorted([i, j] for i, j in enumerate(d.match) if j > i)
        terms = data["terms"]
        return (data["m"], data["n"]) == (d.m, d.n) and len(terms) == 1 \
            and terms[0]["pairs"] == pairs \
            and self.lp_parse(terms[0]["coeff"]) == self.delta ** loops

    def check(self, out, expect):
        what, value = expect
        if what == "text":
            return out.strip().splitlines() == value
        data = json.loads(out)
        if what == "brauer":
            return self._brauer_ok(data, *value)
        if what == "shape":
            return (data["m"], data["n"]) == (value.m, value.n)
        if what == "map":
            nf = data["normal_form"]
            return (nf["m"], nf["n"]) == value and "lam" in data["params"]
        if what == "json":
            return data == value
        if what == "table":
            n = value
            basis = [self.dg.from_pairs(n, n, [tuple(p) for p in b]) for b in data["basis"]]
            if len(basis) != 15:
                return False
            for x, row in zip(basis, data["products"]):
                for y, nf in zip(basis, row):
                    loops, z = self.dg.compose_oracle(x, y)
                    if not self._brauer_ok(nf, loops, z):
                        return False
            return True
        if what == "table1":
            return data["families"] == 13 and data["inconsistent"] == 0
        return data["status"] == "Infeasible" and bool(data["witnesses"])

    def run_job(self, kind, spec, traced):
        argv, expect = spec
        code, out, err, life = spawn("cli", traced, argv=argv)
        head, sep, tail = err.rpartition(MARKER)
        rec = json.loads(tail) if sep else {}
        rec.update(ops=1, life_s=life, lat_ns=[int(life * 1e9)])
        try:
            ok = code == 0 and head.strip() == "" and self.check(out, expect)
        except (ValueError, KeyError, TypeError, IndexError):
            ok = False
        if not ok:
            sys.stderr.write("session call failed (exit %s): %s\n%s\n" % (code, argv, err[-2000:]))
        rec["failed"] = 0 if ok else 1
        # A CLI call's time is the whole process, as its user waits for it.
        rec["wall_s"] = life
        rec["setup_s"] = rec.get("startup_s", life)
        return rec


WORKLOADS = {"sweep": Sweep, "tables": Tables, "roundtrip": Roundtrip, "session": Session}


# ---------------------------------------------------------------------------
# Driving and aggregation


def run_workload(name, seed, seconds, trace, size):
    wl = WORKLOADS[name](SIZES[size])
    rng = random.Random("%s:%d" % (name, seed))
    modes = (False, True) if trace else (False,)
    # Per (kind, traced): how long its last job took, less its output checks.
    # The checks' time does not count against `seconds` either.
    last_cost = {}
    checks_s = 0.0
    jobs = []  # (kind, traced, record)
    start = time.monotonic()
    cycle = 0
    while True:
        kinds = list(wl.kinds)
        rng.shuffle(kinds)
        drawn = [(kind, wl.draw(kind, rng), rng.sample(modes, len(modes))) for kind in kinds]
        launched = False
        for kind, spec, order in drawn:
            for traced in order:
                left = seconds + checks_s - (time.monotonic() - start)
                if cycle and last_cost.get((kind, traced), 0.0) > left:
                    continue
                rec = wl.run_job(kind, spec, traced)
                checks_s += rec.get("check_s", 0.0)
                last_cost[(kind, traced)] = rec["life_s"] - rec.get("check_s", 0.0)
                jobs.append((kind, traced, rec))
                launched = True
        cycle += 1
        if not launched:
            break
    return jobs


def _median_by_kind(jobs, field):
    by = {}
    for kind, _, rec in jobs:
        if field in rec:
            by.setdefault(kind, []).append(rec[field])
    return {k: statistics.median(v) for k, v in by.items()}


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    s = sorted(values)
    return s[max(0, -(-len(s) * q // 100) - 1)]


def end_to_end(jobs):
    ok = [j for j in jobs if not j[2].get("error")]
    wall = sum(_median_by_kind(ok, "wall_s").values())
    ops = sum(_median_by_kind(ok, "ops").values())
    # Op latency per kind: measured op by op where the harness can see each
    # op (roundtrip, session); sweep words and table products run inside one
    # library call, so there each op counts at its call's mean.
    lat = {}
    for kind, _, rec in ok:
        lat.setdefault(kind, []).extend(rec.get("lat_ns") or [rec["wall_s"] / rec["ops"] * 1e9])
    metrics = {
        "setup_s": statistics.median(rec["setup_s"] for _, _, rec in ok),
        "wall_s": wall,
        "ops_per_s": ops / wall,
        "op_p50_ms": statistics.median(statistics.median(v) for v in lat.values()) / 1e6,
        "peak_rss_mb": max(_median_by_kind(ok, "maxrss_kb").values()) / 1024,
    }
    extra = {"jobs": len(jobs), "ops_per_cycle": ops}
    if any("lat_ns" in rec for _, _, rec in ok):
        pooled = [ns for v in lat.values() for ns in v]
        extra.update(op_samples=len(pooled), op_p90_ms=percentile(pooled, 90) / 1e6,
                     op_p99_ms=percentile(pooled, 99) / 1e6)
    return metrics, extra


def per_layer(jobs):
    plain = [j for j in jobs if not j[1] and not j[2].get("error")]
    traced = [j for j in jobs if j[1] and not j[2].get("error")]
    rows = [(kind, dict(rec["layers"], cache_entries=rec["cache_entries"],
                        startup_s=rec["startup_s"], wall_s=rec["wall_s"]))
            for kind, _, rec in traced]
    med = {}
    for kind, layers in rows:
        for key, val in layers.items():
            med.setdefault(key, {}).setdefault(kind, []).append(val)
    # median_low: each figure is one job's value, so counts stay whole.
    kind_med = {key: {k: statistics.median_low(v) for k, v in by.items()} for key, by in med.items()}

    def total(key):
        return sum(kind_med[key].values())

    out = {key: total(key) for key in kind_med
           if key.endswith(("self_s", "calls")) or key in ("coeff.term_pairs", "rewrite.terms_out")}
    out["coeff.mul_one_ratio"] = total("coeff.mul_one") / max(total("coeff.mul_calls"), 1)
    out["rewrite.peak_terms"] = max(kind_med["rewrite.peak_terms"].values())
    out["rewrite.cache_entries"] = total("cache_entries")
    out["cli.startup_s"] = statistics.median_low(layers["startup_s"] for _, layers in rows)
    traced_wall = total("wall_s")
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - sum(_median_by_kind(plain, "wall_s").values())
    return out


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--all", action="store_true", help="run every workload in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "brauercalc", "__init__.py")):
        sys.stderr.write("no brauercalc sources under %s\n" % SRC)
        return 2
    if args.all == bool(args.workload):
        ap.error("give exactly one of --workload and --all")
    sys.path.insert(0, SRC)

    names = sorted(WORKLOADS) if args.all else [args.workload]
    results = {}
    for name in names:
        jobs = run_workload(name, args.seed, args.seconds, args.trace, args.size)
        attempted = sum(rec["ops"] for _, _, rec in jobs)
        failed = sum(rec["failed"] for _, _, rec in jobs)
        errors = sum(1 for _, _, rec in jobs if rec.get("error"))
        if errors == len(jobs):
            sys.stderr.write("%s: every job failed\n" % name)
            return 1
        if args.trace:
            metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(per_layer(jobs).items())}
            extra = {"jobs": len(jobs)}
        else:
            values, extra = end_to_end(jobs)
            metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
        extra["failed_ratio"] = failed / attempted
        for key, m in metrics.items():
            print("%s %s %.6g %s" % (name, key, m["value"], m["unit"]))
        for key, value in extra.items():
            print("%s %s %.6g (report only)" % (name, key, value))
        results[name] = {"correct": failed == 0 and errors == 0, "attempted": attempted,
                         "failed": failed, "metrics": metrics}
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
