"""Spans around finmod's layer functions, recorded from outside the package.

Each traced function is rebound in its defining module and in every finmod
module that imported it by name, so calls through ``from .lattice import
all_submodules`` are seen too.  Spans stay in memory as (name, phase, start,
end, parent, root) and are written out once, after the timed phase.  A span's
duration leaves out the calibrations (``sample.Calibrator``) that ran inside
it, and its self time is that duration minus those of its direct child spans.

Worker processes forked by ``run_suite(jobs=N)`` inherit the wrappers.  Each
worker starts with empty records and, when it exits, writes its counts to
``<worker_dir>/<pid>.json`` and its spans to ``<dump prefix>-worker<pid>.tsv.gz``;
``merge_workers`` adds the counts to the parent's.
"""

from __future__ import annotations

import functools
import glob
import gzip
import json
import os
import sys
import time
from multiprocessing import util

from plan import LAYERS, TRACED, span_name


class Tracer:
    def __init__(self, worker_dir, dump_prefix, calibrator):
        self.phase = "setup"
        self.calibrator = calibrator
        self.worker_dir = worker_dir
        self.dump_prefix = dump_prefix
        self._reset()

    def _reset(self):
        # (name, phase, start_ns, end_ns, parent index, root index); the root
        # span identifies the op (a checker call, a query, an oracle call).
        self.spans = []
        self.stack = []  # indices of open spans
        self.child_ns = []  # per open span: summed duration of its children
        self.stats = {}  # "name|phase" -> [calls, self_ns, repeats, members]

    # -- installation -------------------------------------------------------

    def install(self):
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "finmod"]
        for module_name, attr, fields in TRACED:
            mod = sys.modules[f"finmod.{module_name}"]
            name = span_name(module_name, attr)
            if attr.endswith(".__init__"):
                cls = getattr(mod, attr.split(".")[0])
                cls.__init__ = self._wrap(name, cls.__init__, fields)
                continue
            original = getattr(mod, attr)
            wrapped = self._wrap(name, original, fields)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
        util.register_after_fork(self, Tracer._in_worker)

    def _in_worker(self):
        """Runs in each forked worker: record only the worker's own calls,
        and write them out when the worker exits."""
        self._reset()
        self.phase = "timed"
        util.Finalize(self, self._write_worker, exitpriority=100)

    def _write_worker(self):
        pid = os.getpid()
        with open(os.path.join(self.worker_dir, f"{pid}.json"), "w") as f:
            json.dump(self.stats, f)
        self.dump(f"{self.dump_prefix}-worker{pid}.tsv.gz")

    def merge_workers(self):
        for path in sorted(glob.glob(os.path.join(self.worker_dir, "*.json"))):
            with open(path) as f:
                for key, values in json.load(f).items():
                    entry = self.stats.setdefault(key, [0, 0, 0, 0])
                    for i, v in enumerate(values):
                        entry[i] += v

    def _wrap(self, name, fn, fields):
        track_args = "repeat_frac" in fields
        track_members = "members" in fields
        seen = set()  # argument keys of every call so far
        clock = time.perf_counter_ns
        calibrator = self.calibrator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            repeat = False
            if track_args:
                key = (args, tuple(sorted(kwargs.items())))
                repeat = key in seen
                seen.add(key)
            spans, stack, child_ns = self.spans, self.stack, self.child_ns
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            root = stack[0] if stack else index
            stack.append(index)
            child_ns.append(0)
            spent = calibrator.spent
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                inner = child_ns.pop()
                duration = end - start - round((calibrator.spent - spent) * 1e9)
                if child_ns:
                    child_ns[-1] += duration
                spans[index] = (name, self.phase, start, end, parent, root)
                entry = self.stats.setdefault(f"{name}|{self.phase}", [0, 0, 0, 0])
                entry[0] += 1
                entry[1] += duration - inner
                entry[2] += repeat
            if track_members and not repeat:
                entry[3] += len(result)
            return result

        return traced

    # -- results ------------------------------------------------------------

    def metrics(self):
        """Raw counts of the timed phase per traced function, and each
        layer's self time in both phases, in seconds."""
        functions = {}
        for module_name, attr, _ in TRACED:
            name = span_name(module_name, attr)
            calls, self_ns, repeats, members = self.stats.get(f"{name}|timed", (0, 0, 0, 0))
            functions[name] = {
                "calls": calls,
                "self_s": self_ns / 1e9,
                "repeats": repeats,
                "members": members,
            }
        layers = {}
        for phase in ("timed", "setup"):
            for layer in LAYERS:
                layers[f"{phase}.{layer}"] = sum(
                    v[1] for key, v in self.stats.items()
                    if key.split(".")[0] == layer and key.endswith(f"|{phase}")
                ) / 1e9
        return {"functions": functions, "layers": layers}

    def dump(self, path):
        """Write every span as one tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("index\tname\tphase\tstart_ns\tend_ns\tparent\troot\n")
            for i, (name, phase, start, end, parent, root) in enumerate(self.spans):
                f.write(f"{i}\t{name}\t{phase}\t{start}\t{end}\t{parent}\t{root}\n")
