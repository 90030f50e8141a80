"""One benchmark job in a fresh interpreter.

    python3 worker.py SPAWN_NS TRACE JOB          (job spec as JSON on stdin)
    python3 worker.py SPAWN_NS TRACE cli ARGV...  (one brauercalc CLI call)

SPAWN_NS is the parent's `time.monotonic_ns()` just before it started this
process, so set-up time counts interpreter start and imports.  TRACE is 1
to install the per-layer tracer before anything from brauercalc is
imported.  A job prints one JSON object on stdout; a CLI call leaves stdout
to the CLI and writes its JSON object as the last line of stderr, after
the marker below.

Every process starts with an empty engine memo, fingerprint memo and
variable registry, which is what each CLI or `verify` user gets.
"""

import json
import resource
import sys
import time

MARKER = "BENCH-JOB "


def _maxrss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _start_tracer(trace):
    if not trace:
        return None
    from tracer import Tracer  # this script's directory is on sys.path

    tracer = Tracer()
    tracer.install()
    return tracer


def _finish(tracer, record):
    """Close the timed window: read peak RSS and the engine memo size once,
    then stop tracing, so the checks after it run untraced."""
    from brauercalc import rewrite

    record["maxrss_kb"] = _maxrss_kb()
    record["cache_entries"] = sum(len(eng.cache) for eng in rewrite._ENGINES.values())
    if tracer is not None:
        record["layers"] = tracer.summary()
        tracer.uninstall()
    return record


def _canonical(nf):
    """A normal form by value: coefficients keyed by variable *name*, so the
    text does not depend on the order in which this process met them."""
    from brauercalc.coeff import var_name

    out = []
    for d, c in nf.terms.items():
        coeff = sorted(
            (tuple((var_name(v), e) for v, e in sorted(m, key=lambda ve: var_name(ve[0]))),
             (g.re.numerator, g.re.denominator, g.im.numerator, g.im.denominator))
            for m, g in c.terms.items()
        )
        out.append((d.match, tuple(coeff)))
    return tuple(sorted(out))


def _at_one(poly):
    """A Laurent polynomial's value with every variable set to 1: the sum of
    its coefficients, computed here rather than by `substitute`."""
    from brauercalc.coeff import gr

    total = gr(0)
    for c in poly.terms.values():
        total = total + c
    return total


# ---------------------------------------------------------------------------
# Jobs.  Each returns its record; `t_spawn` is in monotonic nanoseconds.


def job_sweep(spec, tracer, t_spawn):
    import dataclasses

    from brauercalc.coeff import lp_int
    from brauercalc.params import preset
    from brauercalc.rewrite import check_local_confluence

    t_imported = time.monotonic_ns()
    if spec["record"] == "corrupted":
        bwm = preset("bwm")
        p = dataclasses.replace(bwm, a=bwm.a + lp_int(1))
    else:
        p = preset(spec["record"])
    t0 = time.monotonic_ns()
    fails = check_local_confluence(p, max_width=spec["max_width"], max_letters=spec["max_letters"])
    t1 = time.monotonic_ns()
    record = _finish(tracer, {"startup_s": (t_imported - t_spawn) / 1e9,
                              "setup_s": (t0 - t_spawn) / 1e9, "wall_s": (t1 - t0) / 1e9})
    record["counterexamples"] = len(fails)
    return record


def job_tables(spec, tracer, t_spawn):
    import hashlib

    from brauercalc.algebra import mult_table
    from brauercalc.coeff import lp_parse
    from brauercalc.diagram import compose_oracle
    from brauercalc.params import preset

    t_imported = time.monotonic_ns()
    n = spec["n"]
    p = preset(spec["preset"])
    t0 = time.monotonic_ns()
    table = mult_table(n, p)
    t1 = time.monotonic_ns()
    record = _finish(tracer, {"startup_s": (t_imported - t_spawn) / 1e9,
                              "setup_s": (t0 - t_spawn) / 1e9, "wall_s": (t1 - t0) / 1e9})

    t_check = time.monotonic_ns()
    failed = 0
    if spec["check"] and spec["preset"] == "brauer":
        delta = lp_parse("delta")
        for x, row in zip(table.basis, table.products):
            for y, nf in zip(table.basis, row):
                loops, z = compose_oracle(x, y)
                failed += nf.terms != {z: delta ** loops}
    elif spec["check"] and spec["preset"] == "periplectic_q":
        classical = mult_table(n, preset("periplectic"))
        for row_q, row_c in zip(table.products, classical.products):
            for nf_q, nf_c in zip(row_q, row_c):
                at_one = {d: _at_one(c) for d, c in nf_q.terms.items()}
                failed += {d: v for d, v in at_one.items() if not v.is_zero()} != \
                    {d: _at_one(c) for d, c in nf_c.terms.items()}
    digest = hashlib.sha256()
    for row in table.products:
        for nf in row:
            digest.update(repr(_canonical(nf)).encode())
    record.update(failed=failed, digest=digest.hexdigest(),
                  check_s=(time.monotonic_ns() - t_check) / 1e9)
    return record


def job_roundtrip(spec, tracer, t_spawn):
    from brauercalc.coeff import lp_int
    from brauercalc.diagram import from_pairs, standard_letters
    from brauercalc.params import preset
    from brauercalc.rewrite import normalize
    from brauercalc.term import GenWord, Letter

    t_imported = time.monotonic_ns()
    p = preset(spec["preset"])
    diagrams = []
    for m, n, match in spec["diagrams"]:
        diagrams.append(from_pairs(m, n, [(i, j) for i, j in enumerate(match) if j > i]))
    # The first normalize call of a process checks the record's consistency
    # and fingerprints it; make that call here so the timed ops are round
    # trips only.
    normalize(GenWord(0, ()), p)
    clock = time.perf_counter_ns
    lat = []
    out = []
    t0 = time.monotonic_ns()
    for d in diagrams:
        s = clock()
        w = GenWord(d.m, tuple(Letter(k, pos) for k, pos in standard_letters(d)))
        nf = normalize(w, p)
        lat.append(clock() - s)
        out.append(nf)
    t1 = time.monotonic_ns()
    record = _finish(tracer, {"startup_s": (t_imported - t_spawn) / 1e9,
                              "setup_s": (t0 - t_spawn) / 1e9, "wall_s": (t1 - t0) / 1e9})
    one = lp_int(1)
    record["failed"] = sum(nf.terms != {d: one} for d, nf in zip(diagrams, out))
    record["lat_ns"] = lat
    return record


JOBS = {"sweep": job_sweep, "tables": job_tables, "roundtrip": job_roundtrip}


def cli_call(t_spawn, tracer, argv):
    from brauercalc.cli import main

    record = {}
    t_main = time.monotonic_ns()
    record["startup_s"] = (t_main - t_spawn) / 1e9
    code = 1
    try:
        code = main(argv)
    finally:
        record["main_s"] = (time.monotonic_ns() - t_main) / 1e9
        sys.stdout.flush()
        _finish(tracer, record)
        sys.stderr.write("\n" + MARKER + json.dumps(record) + "\n")
    return code


def main():
    t_spawn, trace, job = int(sys.argv[1]), sys.argv[2] == "1", sys.argv[3]
    tracer = _start_tracer(trace)
    if job == "cli":
        return cli_call(t_spawn, tracer, sys.argv[4:])
    record = JOBS[job](json.load(sys.stdin), tracer, t_spawn)
    json.dump(record, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
