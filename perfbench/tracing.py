"""Span tracing of gradedq from outside the package.

`Tracer.install` wraps the public functions and methods of each layer
module (and the CLI's `_emit`) at every binding site: module attributes
in every loaded gradedq module, class attributes, and module-level dicts
such as the CLI's handler table.  Each call records a span (id,
function, start, end, parent span, job) in memory.  Layer metrics are
derived from the spans afterwards; a function's self time is its span
minus the spans of its direct children.

`audit` re-runs a job under `sys.setprofile` and compares how often each
wrapped function's code really ran with how often its wrappers saw it,
so a binding site the tracer missed cannot silently zero a count.
"""

from __future__ import annotations

import inspect
import sys
from array import array
import time
from collections import Counter, defaultdict

LAYER_OF_MODULE = {
    "gradedq._kernel_py": "kernel", "gradedq.poly": "poly",
    "gradedq.element": "element", "gradedq.symplectic": "symplectic",
    "gradedq.npq": "npq", "gradedq.algebroid": "algebroid",
    "gradedq.forms": "forms", "gradedq.config": "config",
    "gradedq.genmetric": "genmetric", "gradedq.reports": "reports",
    "gradedq.cli": "cli", "gradedq.randomgen": "randomgen",
}
LAYERS = sorted(set(LAYER_OF_MODULE.values()))
ARITHMETIC = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__neg__", "__pow__", "__eq__"}
PRIVATE_TARGETS = {"gradedq.cli": {"_emit"}}

# Binding sites each workload must reach; a site that no longer exists
# in the program is reported, not failed.
EXPECTED_SITES = {
    "courant": [
        "gradedq.verify_courant", "gradedq.algebroid.dorfman",
        "gradedq.algebroid.anchor", "gradedq.algebroid.pairing",
        "gradedq.algebroid.encode_section", "gradedq.algebroid.decode_section",
        "gradedq.algebroid.vec_lie_bracket", "gradedq.algebroid.ext_d",
        "gradedq.algebroid.random_section", "gradedq.symplectic.poisson",
        "gradedq.element.element_mul", "gradedq.element.mono_partial",
        "gradedq.poly.poly_mul", "gradedq.poly.poly_add",
        "gradedq._kernel_py.mono_mul", "gradedq._kernel_py.poly_mul",
        "gradedq.element.GradedElement.__mul__",
        "gradedq.element.GradedElement.super_partial"],
    "hflux-dense": [
        "gradedq.verify_leibniz", "gradedq.gauge_exp", "gradedq.embed_form",
        "gradedq.ext_d", "gradedq.theta_vinogradov", "gradedq.algebroid.dorfman",
        "gradedq.symplectic.poisson", "gradedq._kernel_py.poly_mul",
        "gradedq._kernel_py.poly_add", "gradedq.element.element_mul"],
    "m5-bianchi": [
        "gradedq.master_equation", "gradedq.q_square_check", "gradedq.theta_m5",
        "gradedq.npq.poisson", "gradedq.npq.q_apply", "gradedq.npq.embed_form",
        "gradedq.element.element_mul", "gradedq.element.mono_partial",
        "gradedq._kernel_py.mono_mul"],
    "cli": [
        "gradedq.cli.main", "gradedq.cli.parse_config", "gradedq.cli._emit",
        "gradedq.cli._HANDLERS[check-master]", "gradedq.cli._HANDLERS[q-square]",
        "gradedq.cli._HANDLERS[bracket]", "gradedq.cli._HANDLERS[axioms]",
        "gradedq.cli._HANDLERS[rank]", "gradedq.cli._HANDLERS[classify]",
        "gradedq.cli._HANDLERS[genmetric]", "gradedq.cli.master_equation",
        "gradedq.cli.q_square_check", "gradedq.cli.verify_courant",
        "gradedq.cli.verify_leibniz", "gradedq.cli.dorfman",
        "gradedq.cli.poincare_primitive", "gradedq.cli.witnesses_of",
        "gradedq.genmetric.build_gen_metric", "gradedq.genmetric.act",
        "gradedq.genmetric.extract"],
}


def records(taken: dict):
    """The span tuples of a `Tracer.take` result."""
    return zip(*[iter(taken["spans"])] * 6)


def _is_target(modname: str, name: str, obj) -> bool:
    if not inspect.isfunction(obj) or obj.__module__ != modname:
        return False
    return (not name.startswith("_") or name in ARITHMETIC
            or name in PRIVATE_TARGETS.get(modname, ()))


class Tracer:
    """Wraps gradedq in place; one per traced process."""

    def __init__(self):
        # flat records (span, function, start ns, end ns, parent, job)
        self.spans = array("q")
        self.names: list[str] = []     # function id -> "layer.qualname"
        self.codes: list = []          # function id -> code object
        self.site_names: list[str] = []
        self.site_hits: list[int] = []
        self.counts: Counter = Counter()   # (job, counter) -> value
        self.terms_peak = 0
        self.job = -1
        self._next = 1
        self._stack = [0]
        self._seen: set = set()

    # installation ----------------------------------------------------
    def install(self):
        import gradedq.cli  # noqa: F401  loads every layer module
        from gradedq.element import GradedElement
        self._element_type = GradedElement
        self._hook_table = self._hooks()
        fids: dict[int, int] = {}   # id(original function) -> function id

        def fid_of(fn, layer):
            key = id(fn)
            if key not in fids:
                fids[key] = len(self.names)
                self.names.append(f"{layer}.{fn.__qualname__}")
                self.codes.append(fn.__code__)
            return fids[key]

        targets: dict[int, tuple] = {}  # id(fn) -> (fn, layer)
        for modname, layer in LAYER_OF_MODULE.items():
            mod = sys.modules.get(modname)
            if mod is None:  # a layer module the program no longer has
                continue
            for name, obj in list(vars(mod).items()):
                if _is_target(modname, name, obj):
                    targets[id(obj)] = (obj, layer)
                elif inspect.isclass(obj) and obj.__module__ == modname:
                    self._wrap_class(obj, layer, fid_of)
        for modname in sorted(m for m in sys.modules if m.split(".")[0] == "gradedq"):
            mod = sys.modules[modname]
            for name, obj in list(vars(mod).items()):
                if name.startswith("__"):
                    continue
                if id(obj) in targets and obj is targets[id(obj)][0]:
                    fn, layer = targets[id(obj)]
                    setattr(mod, name, self._wrap(fn, fid_of(fn, layer),
                                                  f"{modname}.{name}"))
                elif type(obj) is dict:
                    for key, val in list(obj.items()):
                        if id(val) in targets and val is targets[id(val)][0]:
                            fn, layer = targets[id(val)]
                            obj[key] = self._wrap(fn, fid_of(fn, layer),
                                                  f"{modname}.{name}[{key}]")

    def _wrap_class(self, cls, layer, fid_of):
        site = f"{cls.__module__}.{cls.__qualname__}"
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in ARITHMETIC:
                continue
            if isinstance(attr, (classmethod, staticmethod)):
                fn = attr.__func__
                wrapped = type(attr)(self._wrap(fn, fid_of(fn, layer), f"{site}.{name}"))
            elif inspect.isfunction(attr):
                wrapped = self._wrap(attr, fid_of(attr, layer), f"{site}.{name}")
            else:
                continue
            setattr(cls, name, wrapped)

    def _wrap(self, fn, fid, site):
        site_id = len(self.site_names)
        self.site_names.append(site)
        self.site_hits.append(0)
        hook = self._hook_table.get(self.names[fid])
        tracer, spans, stack, hits = self, self.spans, self._stack, self.site_hits
        element_type = self._element_type
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = tracer._next
            tracer._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            hits[site_id] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.extend((sid, fid, t0, t1, parent, tracer.job))
            if hook is not None:
                hook(args, result)
            if type(result) is element_type and len(result.terms) > tracer.terms_peak:
                tracer.terms_peak = len(result.terms)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _hooks(self):
        counts = self.counts

        def poly_mul(args, result):
            counts[self.job, "term_products"] += len(args[0]) * len(args[1])

        def element_mul(args, result):
            counts[self.job, "mono_pairs"] += len(args[0]) * len(args[1])

        def poisson(args, result):
            key = (hash(args[0]), hash(args[1]))
            if key in self._seen:
                counts[self.job, "poisson_repeats"] += 1
            else:
                self._seen.add(key)

        return {"kernel.poly_mul": poly_mul, "kernel.element_mul": element_mul,
                "symplectic.poisson": poisson}

    # runs ------------------------------------------------------------
    def start_job(self, job: int):
        self.job = job
        self._seen = set()

    def take(self) -> dict:
        """Spans and counts recorded since the last take, then reset."""
        out = {"spans": self.spans[:], "counts": Counter(self.counts),
               "terms_peak": self.terms_peak, "site_hits": list(self.site_hits)}
        del self.spans[:]
        self.counts.clear()
        self.terms_peak = 0
        self.site_hits[:] = [0] * len(self.site_hits)
        return out

    def audit(self, run_job) -> list[str]:
        """Run one job traced and profiled.  Returns the functions whose code
        ran a different number of times than their wrappers saw, which means
        a binding site was missed."""
        ran: Counter = Counter()

        def profile(frame, event, arg):
            if event == "call":
                ran[frame.f_code] += 1

        self.start_job(-2)
        sys.setprofile(profile)
        try:
            run_job()
        finally:
            sys.setprofile(None)
        seen = Counter(s[1] for s in records(self.take()) if s[5] == -2)
        return [f"{self.names[fid]}: ran {ran[code]}, traced {seen[fid]}"
                for fid, code in enumerate(self.codes) if ran[code] != seen[fid]]

    # summaries -------------------------------------------------------
    def per_job_counts(self, taken: dict, jobs) -> dict:
        """Deterministic counts of the given jobs: calls per function and
        the argument counters."""
        out = {j: Counter() for j in jobs}
        for _, fid, _, _, _, job in records(taken):
            if job in out:
                out[job][self.names[fid]] += 1
        for (job, name), value in taken["counts"].items():
            if job in out:
                out[job][name] += value
        return out

    def functions(self, taken: dict) -> dict:
        """name -> [calls, total ns, self ns]."""
        child = array("q", bytes(8 * self._next))
        for _, _, t0, t1, parent, _ in records(taken):
            child[parent] += t1 - t0
        stats = defaultdict(lambda: [0, 0, 0])
        for sid, fid, t0, t1, _, _ in records(taken):
            row = stats[self.names[fid]]
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - child[sid]
        return dict(stats)

    def series_calls(self, taken: dict) -> int:
        """Poisson brackets computed directly inside gauge_exp."""
        gauge = {sid for sid, fid, *_ in records(taken)
                 if self.names[fid] == "symplectic.gauge_exp"}
        return sum(1 for _, fid, _, _, parent, _ in records(taken)
                   if parent in gauge and self.names[fid] == "symplectic.poisson")

    def missed_sites(self, taken: dict, workload: str) -> tuple[list, list]:
        """(expected sites never hit, expected sites absent from the program)."""
        hits = dict(zip(self.site_names, taken["site_hits"]))
        expected = EXPECTED_SITES[workload]
        return ([s for s in expected if hits.get(s) == 0],
                [s for s in expected if s not in hits])

    def write_spans(self, taken: dict, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,function,start_ns,end_ns,parent,job\n")
            fh.writelines(f"{s},{self.names[f]},{t0},{t1},{p},{j}\n"
                          for s, f, t0, t1, p, j in records(taken))


def layer_metrics(tracer: Tracer, taken: dict, fn: dict, trials: int,
                  traced_s: float) -> dict:
    """The per-layer metrics of one traced pass; `fn` is `tracer.functions`."""
    counts = Counter()
    for (_, name), value in taken["counts"].items():
        counts[name] += value

    def calls(name):
        return fn.get(name, (0, 0, 0))[0]

    def total_ms(prefix):
        return sum(r[1] for n, r in fn.items() if n.startswith(prefix)) / 1e6

    self_ms = {layer: sum(r[2] for n, r in fn.items() if n.split(".")[0] == layer) / 1e6
               for layer in LAYERS}
    poisson_calls = calls("symplectic.poisson")
    gauge_calls = calls("symplectic.gauge_exp")
    dorfman_calls = calls("algebroid.dorfman")
    coeff_ms = self_ms["kernel"] + self_ms["poly"]
    return {
        "kernel.poly_mul.calls": calls("kernel.poly_mul"),
        "kernel.poly_mul.term_products": counts["term_products"],
        "kernel.element_mul.calls": calls("kernel.element_mul"),
        "kernel.element_mul.mono_pairs": counts["mono_pairs"],
        "kernel.mono_partial.calls": calls("kernel.mono_partial"),
        "kernel.self_ms": self_ms["kernel"],
        "poly.mul.calls": calls("poly.Poly.__mul__"),
        "poly.add.calls": calls("poly.Poly.__add__"),
        "poly.self_ms": self_ms["poly"],
        "element.mul.calls": calls("element.GradedElement.__mul__"),
        "element.super_partial.calls": calls("element.GradedElement.super_partial"),
        "element.terms_peak": taken["terms_peak"],
        "element.self_ms": self_ms["element"],
        "symplectic.poisson.calls": poisson_calls,
        "symplectic.poisson.repeat_ratio":
            counts["poisson_repeats"] / poisson_calls if poisson_calls else 0.0,
        "symplectic.poisson.self_ms": fn.get("symplectic.poisson", (0, 0, 0))[2] / 1e6,
        "symplectic.gauge_exp.calls": gauge_calls,
        "symplectic.gauge_exp.series_len":
            tracer.series_calls(taken) / gauge_calls if gauge_calls else 0.0,
        "npq.master_equation.calls": calls("npq.master_equation"),
        "npq.q_apply.calls": calls("npq.q_apply"),
        "npq.self_ms": self_ms["npq"],
        "algebroid.dorfman.calls": dorfman_calls,
        "algebroid.dorfman.per_trial": dorfman_calls / trials if trials else 0.0,
        "algebroid.self_ms": self_ms["algebroid"],
        "forms.calls": sum(r[0] for n, r in fn.items() if n.startswith("forms.")),
        "forms.self_ms": self_ms["forms"],
        "config.parse_config.ms": total_ms("config.parse_config"),
        "genmetric.self_ms": self_ms["genmetric"],
        "reports.self_ms": self_ms["reports"],
        "randomgen.self_ms": self_ms["randomgen"],
        "cli.handler_ms": total_ms("cli.cmd_"),
        "cli.emit_ms": total_ms("cli._emit"),
        "share.coefficient_arith": coeff_ms / (traced_s * 1e3) if traced_s else 0.0,
    }
