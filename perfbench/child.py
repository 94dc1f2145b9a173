"""One benchmark repetition, run in a fresh interpreter.

Usage: child.py RESULT_JSON LAUNCHED MODE [APGAME ARGS...]

MODE is ``setup`` (import only), ``memory`` (one CLI call, for its peak
memory: the speed probe's signals raise peak RSS by up to 8 MiB), ``plain``
(one CLI call, timed with the speed probe running) or ``trace`` (one CLI call
with every layer wrapped).
LAUNCHED is the parent's ``time.perf_counter()`` just before it started this
interpreter; on Linux that clock is system-wide, so set-up is timed from
then until ``apgame.cli`` is imported, less the speed probes taken on the
way. The CLI's own output goes to stdout; the measurements go to RESULT_JSON.
"""

import time

import speed

SETUP_PROBES = [speed.probe() for _ in range(5)]

import apgame.cli  # noqa: E402  (the import that set-up times)

IMPORTED = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    result_path, launched, mode, cli_argv = sys.argv[1], float(sys.argv[2]), sys.argv[3], sys.argv[4:]
    setup_raw_s = IMPORTED - launched - sum(SETUP_PROBES)
    record: dict = {
        "setup_raw_s": setup_raw_s,
        "setup_s": speed.reference_seconds(setup_raw_s, SETUP_PROBES),
        "numpy": sys.modules["numpy"].__version__,
    }
    if mode == "memory":
        record["exit_code"] = apgame.cli.main(cli_argv)
    elif mode == "plain":
        with speed.SpeedSampler() as sampler:
            record["exit_code"] = apgame.cli.main(cli_argv)
        record["wall_raw_s"] = sampler.raw_s
        record["wall_s"] = sampler.ref_s
    elif mode == "trace":
        from layers import Instrumentation

        # Probes would land inside spans, so the speed is taken around the call.
        probes = [speed.probe() for _ in range(5)]
        instr = Instrumentation()
        instr.install()
        try:
            start = time.perf_counter()
            record["exit_code"] = apgame.cli.main(cli_argv)
            record["wall_raw_s"] = time.perf_counter() - start
        finally:
            leftovers = instr.uninstall()
        probes += [speed.probe() for _ in range(5)]
        record["wall_s"] = speed.reference_seconds(record["wall_raw_s"], probes)
        record["per_layer"] = instr.metrics()
        record["trace_failures"] = instr.checks(record["wall_raw_s"]) + [
            f"wrapper left in place: {name}" for name in leftovers
        ]
    sys.stdout.flush()
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(result_path, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
