"""Long-lived library worker for the certify-scan workload.

Usage: python perfbench/worker.py [--trace]

Protocol, one JSON object per line.  The first request is
``{"specs": {name: path}}``; the worker loads every spec and answers
``{"ready": true}``.  Each later request names a library call,
``{"call": ..., "spec": ..., "args": {...}}``, and gets ``{"ok": true,
"result": {...}}`` or ``{"ok": false, "error": "..."}``; the call "batch"
takes ``{"calls": [request, ...]}`` and answers with a list of results.  With ``--trace``
every reply also carries the span summary of that request.  The worker
exits at end of input.
"""

import json
import sys
import time

t_start = time.monotonic()
import mpmath  # noqa: E402,F401  (timed on its own: the bounds layer's dependency)
t_mpmath = time.monotonic()
import treegroups  # noqa: E402
t_import = time.monotonic()


def _witness(fn, takes_k=True):
    def call(spec, a):
        w = spec.parse_word
        k = (a["k"],) if takes_k else ()
        wit = fn(spec, *k, w(a["g1"]), w(a["g2"]), a["depth"])
        return {"case": wit.case, "claim": wit.claim, "power": wit.power_used,
                "certified": wit.certified}
    return call


def _acyl(spec, a):
    chk = treegroups.check_acylindricity(spec, a["k"], a["length"], a["radius"])
    return {"verdict": chk.verdict, "certified": chk.certified,
            "witness_diameter": chk.witness_diameter}


def _fixed_set(spec, a):
    region = treegroups.fixed_set(spec, spec.parse_word(a["g"]), radius=a["radius"])
    return {"members": len(region.members), "exhaustive": region.exhaustive_within_radius}


def _t_set(spec, a):
    region = treegroups.t_set(spec, spec.parse_word(a["g"]), radius=a["radius"],
                              max_power=a["max_power"])
    return {"members": len(region.members)}


def _product_tau(spec, a):
    rep = treegroups.product_translation_length(spec, spec.parse_word(a["g1"]),
                                                spec.parse_word(a["g2"]))
    return {"tau": rep.tau_product, "distance": rep.distance_of_fixed_sets}


def main() -> int:
    tracer = None
    if "--trace" in sys.argv[1:]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    # bound after install, so traced runs call the wrapped functions
    calls = {
        "witness_elliptic_pair": _witness(treegroups.witness_elliptic_pair),
        "witness_elliptic_hyperbolic": _witness(treegroups.witness_elliptic_hyperbolic),
        "witness_hyperbolic_pair": _witness(treegroups.witness_hyperbolic_pair),
        "semigroup_witness": _witness(treegroups.semigroup_witness, takes_k=False),
        "check_acylindricity": _acyl,
        "fixed_set": _fixed_set,
        "t_set": _t_set,
        "product_translation_length": _product_tau,
    }
    specs = {}
    for line in sys.stdin:
        req = json.loads(line)
        if tracer is not None:
            tracer.reset()
        if "specs" in req:
            specs = {name: treegroups.load_spec(path) for name, path in req["specs"].items()}
            reply = {"ready": True, "import_s": t_import - t_start,
                     "mpmath_s": t_mpmath - t_start}
        else:
            try:
                if req["call"] == "batch":
                    result = [calls[c["call"]](specs[c["spec"]], c["args"])
                              for c in req["args"]["calls"]]
                else:
                    result = calls[req["call"]](specs[req["spec"]], req["args"])
                reply = {"ok": True, "result": result}
            except Exception as exc:  # reported to the benchmark as a failed op
                reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        if tracer is not None:
            reply["trace"] = tracer.summary()
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
