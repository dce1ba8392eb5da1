"""In-process span recorder for the traced run.

`Tracer.install()` wraps the public functions of every desarc module, and
the copies other modules imported by name, so each call records a span:
its name, the span that was open when it started, and its start and end
times.  Spans go into flat arrays in memory and are written out by
`write()` at the end.  Field operations and the points a subspace walk
yields are only counted, because they run millions of times.
`uninstall()` restores every original.
"""

from __future__ import annotations

import importlib
import inspect
from array import array
from time import perf_counter

MODULES = ("field", "projlin", "arcs", "desargues", "configuration",
           "enumeration", "io", "cli")
FIELD_OPS = ("add", "sub", "mul", "neg", "inv")


class Tracer:
    def __init__(self):
        self.names = []           # span name per distinct name id
        self._name_ids = {}
        self.name = array("i")    # per span: name id
        self.parent = array("i")  # per span: index of the enclosing span, -1 at top
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack = [-1]
        self.field_calls = [0]
        self.points_yielded = [0]
        self.results = []         # (span index, return value) of `keep_results`
        self._restore = []

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn, keep_result=False):
        nid = self._name_id(name)
        names, parents, t0, t1 = self.name, self.parent, self.t0, self.t1
        stack, results = self.stack, self.results

        def span(*args, **kwargs):
            idx = len(t0)
            names.append(nid)
            parents.append(stack[-1])
            t1.append(0.0)
            stack.append(idx)
            t0.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                t1[idx] = perf_counter()
                stack.pop()
            if keep_result:
                results.append((idx, out))
            return out

        return span

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, keep_results=()):
        mods = {m: importlib.import_module(f"desarc.{m}") for m in MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                name = f"{short}.{attr}"
                wrapped[obj] = self.wrap(name, obj, name in keep_results)
        cli = mods["cli"]
        wrapped[cli._pair_battery] = self.wrap("cli.pair_battery", cli._pair_battery)
        # re-bind every module-level reference, including names imported
        # from another module, so no call path bypasses its span
        for mod in list(mods.values()) + [importlib.import_module("desarc")]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])
        for cname, cmd in cli.main.commands.items():
            self._set(cmd, "callback", self.wrap(f"cli.{cname}", cmd.callback))
        self._count_points(mods["projlin"].Subspace)
        self._count_field_ops(mods["field"].GF)

    def _count_points(self, subspace_cls):
        walk = subspace_cls.points
        counter = self.points_yielded

        def points(sub):
            for pt in walk(sub):
                counter[0] += 1
                yield pt

        self._set(subspace_cls, "points", points)

    def _count_field_ops(self, gf_cls):
        counter = self.field_calls

        def counted(op):
            def call(*args):
                counter[0] += 1
                return op(*args)
            return call

        def hook(init):
            def install_ops(gf):
                init(gf)
                for attr in FIELD_OPS:
                    object.__setattr__(gf, attr, counted(getattr(gf, attr)))
            return install_ops

        for attr in ("_init_prime_ops", "_init_ext_ops"):
            self._set(gf_cls, attr, hook(getattr(gf_cls, attr)))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- analysis --------------------------------------------------------------

    def __len__(self):
        return len(self.t0)

    def totals(self):
        """Per name: (calls, total seconds, self seconds).  A span's self time
        is its duration minus the durations of its direct children, which
        nest inside it because every call is synchronous."""
        n = len(self.t0)
        child = [0.0] * n
        parent, t0, t1 = self.parent, self.t0, self.t1
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += t1[i] - t0[i]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        names, name = self.names, self.name
        for i in range(n):
            rec = out[names[name[i]]]
            dur = t1[i] - t0[i]
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - child[i]
        return out

    def count_within(self, inner, outer):
        """Number of `inner` spans that have an `outer` span among their
        ancestors.  Parents precede children in the arrays."""
        inner_id = self._name_ids.get(inner)
        outer_id = self._name_ids.get(outer)
        if inner_id is None or outer_id is None:
            return 0
        n = len(self.t0)
        under = bytearray(n)
        parent, name = self.parent, self.name
        count = 0
        for i in range(n):
            p = parent[i]
            if p >= 0 and (under[p] or name[p] == outer_id):
                under[i] = 1
                if name[i] == inner_id:
                    count += 1
        return count

    def write(self, path):
        """One line per span: index, parent index, name, start, end (s)."""
        names = self.names
        with open(path, "w") as fh:
            fh.write("index\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.t0)):
                fh.write(f"{i}\t{self.parent[i]}\t{names[self.name[i]]}\t"
                         f"{self.t0[i]:.9f}\t{self.t1[i]:.9f}\n")
