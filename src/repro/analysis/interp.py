"""Path-exploring abstract interpreter over workload units.

The analyzer executes ``pre_failure`` / ``post_failure`` bodies on an
*abstract* PM (:mod:`repro.analysis.lattice`) instead of the real
runtime: stores, flushes, fences, and transaction operations update a
persistence lattice, and rule violations become findings with
``file:line`` provenance.

Path sensitivity comes from a decision log: every unknown branch
consults a prefix of forced choices and defaults beyond it, recording
where new decisions were made.  After each run the engine spawns
alternative prefixes (bounded per decision site), so both arms of every
reachable branch are explored without any state forking — each path
re-runs the unit from scratch and is deterministic given its prefix.

Deliberate approximations (documented in ``docs/static-analysis.md``):
generators and deep recursion return fresh symbols and poison their
function span (none of its lines is certified); symbolic array indices collapse to a
deterministic representative offset *within the same region base* so
TX-protection checks still line up; a scoped persist drains only its
own range.
"""

from __future__ import annotations

import ast
import sys
import types
import zlib
import struct as _structmod

from repro.analysis import model as M
from repro.analysis.findings import AnalysisReport, AnalysisStats, Finding
from repro.analysis.lattice import (
    DIRTY, FLUSHED, NT, PERSISTED, TXSTORED, PMState, Seg,
)
from repro.analysis.rules import RULES
from repro.pmdk import ObjectPool, pmem as _pmem
from repro.pmdk.layout import Array as _ArrayField, Blob, Embed, Struct
from repro.workloads.base import TraversalGuard as _TraversalGuard

#: Modules whose functions must be *modeled*, never inlined.
RUNTIME_PREFIXES = (
    "repro.pm", "repro.pmdk", "repro.core", "repro.trace",
    "repro.obs", "repro.mechanisms", "repro._location", "repro.errors",
)

#: Modules whose callables may be invoked concretely on Const args.
PURE_MODULES = {"builtins", "struct", "math", "operator", "_struct"}

_MISSING = object()


class AnalysisError(Exception):
    """The analyzer hit a construct it cannot model."""


class _Unsupported(AnalysisError):
    pass


class _Return(Exception):
    def __init__(self, value):
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _PathAbort(Exception):
    """This program path raises / aborts; stop executing it."""


class _UnitExit(Exception):
    """Normal early completion (complete_detection)."""


class _Packed(M.Value):
    """struct.pack output whose operand values are preserved, so a
    pack → store → load → unpack round trip keeps pointer identity."""

    __slots__ = ("fmt", "vals")

    def __init__(self, fmt, vals):
        self.fmt = fmt
        self.vals = list(vals)

    @property
    def size(self):
        return _structmod.calcsize(self.fmt)


# ----------------------------------------------------------------------
# AST plumbing
# ----------------------------------------------------------------------

_AST_CACHE = {}


def _module_index(path):
    cached = _AST_CACHE.get(path)
    if cached is not None:
        return cached
    try:
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
    except (OSError, SyntaxError) as exc:
        raise _Unsupported(f"cannot parse {path}: {exc}") from exc
    index = {}

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = prefix + child.name
                index[qual] = child
                walk(child, qual + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")
            else:
                walk(child, prefix)

    walk(tree, "")
    _AST_CACHE[path] = index
    return index


def _fn_node(fn):
    code = fn.__code__
    node = _module_index(code.co_filename).get(fn.__qualname__)
    if node is None:
        raise _Unsupported(f"no source for {fn.__qualname__}")
    return node, code.co_filename


def _has_yield(node):
    return any(
        isinstance(n, (ast.Yield, ast.YieldFrom)) for n in ast.walk(node)
    )


def _stmt_span(stmt):
    """(first, last) line of the part of ``stmt`` that executes as one
    step — compound statements contribute only their header."""
    if isinstance(stmt, (ast.If, ast.While)):
        end = stmt.test.end_lineno
    elif isinstance(stmt, ast.For):
        end = stmt.iter.end_lineno
    elif isinstance(stmt, ast.With):
        end = stmt.items[-1].context_expr.end_lineno
    elif isinstance(stmt, (ast.Try, ast.FunctionDef, ast.ClassDef)):
        end = stmt.lineno
    else:
        end = getattr(stmt, "end_lineno", None)
    return stmt.lineno, end or stmt.lineno


def _disp(k, slots=64):
    """Deterministic pseudo-offset for a symbolic index (see module
    docstring): distinct symbols separate, same symbol unifies."""
    return (zlib.crc32(repr(k).encode()) % slots) * 8


class _Frame:
    __slots__ = ("file", "qual", "node", "env", "closure", "globals",
                 "line", "span")

    def __init__(self, file, qual, node, env, closure, globs):
        self.file = file
        self.qual = qual
        self.node = node
        self.env = env
        self.closure = closure
        self.globals = globs
        self.line = node.lineno if node is not None else 0
        self.span = (self.line, self.line)


# Model-function registry: real runtime callables → handler names.
MODEL_FNS = {
    _pmem.flush: "_m_pmem_flush",
    _pmem.drain: "_m_pmem_drain",
    _pmem.sfence: "_m_pmem_drain",
    _pmem.persist: "_m_pmem_persist",
    _pmem.memcpy_persist: "_m_pmem_memcpy_persist",
    _pmem.memcpy_nodrain: "_m_pmem_memcpy_nodrain",
    _pmem.memset_persist: "_m_pmem_memset_persist",
    ObjectPool.create.__func__: "_m_pool_create",
    ObjectPool.open.__func__: "_m_pool_open",
    Struct.offset_of.__func__: "_m_struct_offset_of",
    Struct.size_of.__func__: "_m_struct_size_of",
    # Traversal guards are cycle insurance for *corrupted* crash
    # images; on the analyzer's bounded unrollings they can never trip,
    # so inlining their per-iteration bookkeeping would only burn the
    # step budget.
    _TraversalGuard.__init__: "_m_noop",
    _TraversalGuard.step: "_m_noop",
}


class Interp:
    """One analysis of one workload instance (both units)."""

    def __init__(self, workload, *, max_paths=600, max_steps=1_200_000,
                 max_forks=5, loop_cap=2, while_cap=96, strict=False):
        self.workload = workload
        self.max_paths = max_paths
        self.max_steps = max_steps
        self.max_forks = max_forks
        self.loop_cap = loop_cap
        self.while_cap = while_cap
        self.strict = strict
        # Cross-path accumulators.
        self.findings = {}
        self.cov = set()
        self.uncert = set()
        self.unsafe_spans = set()
        self.fork_counts = {}
        #: store/flush site -> enclosing function span, so a seg whose
        #: persistence turns out incomplete can uncertify the right
        #: lines long after its frame was popped.
        self.store_spans = {}
        self.errors = []
        self.inlined_fns = set()
        self.stats = AnalysisStats()

    # -- top level -----------------------------------------------------

    def analyze(self):
        self.run_unit("pre_failure", exit_checks=True, cert=True)
        self.run_unit("post_failure", exit_checks=False, cert=False)
        self.stats.functions = len(self.inlined_fns)
        self.stats.lines_covered = len(self.cov)
        report = AnalysisReport(
            getattr(self.workload, "name", type(self.workload).__name__),
            list(self.findings.values()), self.stats,
        )
        report.coverage = frozenset(self.cov)
        report.uncertified = frozenset(self.uncert)
        report.unsafe_spans = frozenset(self.unsafe_spans)
        report.errors = list(self.errors)
        return report

    def run_unit(self, name, exit_checks, cert):
        fn = getattr(type(self.workload), name, None)
        if fn is None:
            return
        pending = [()]
        seen = {()}
        while pending:
            if (self.stats.paths >= self.max_paths
                    or self.stats.steps >= self.max_steps):
                self.stats.incomplete = True
                break
            prefix = pending.pop()
            decisions, newdecs = self._run_path(fn, prefix, exit_checks,
                                                cert)
            self.stats.paths += 1
            for pos, site, n in newdecs:
                count = self.fork_counts.get(site, 0)
                if count >= self.max_forks:
                    continue
                self.fork_counts[site] = count + 1
                for alt in range(1, n):
                    alt_prefix = tuple(decisions[:pos]) + (alt,)
                    if alt_prefix not in seen:
                        seen.add(alt_prefix)
                        pending.append(alt_prefix)

    def _run_path(self, fn, prefix, exit_checks, cert):
        self.state = PMState()
        self.assumed = {}
        self.cmpmemo = {}
        self.nsym = 0
        self.nhandle = 0
        self.nroot = 0
        self.lib_depth = 0
        self.frames = []
        self.call_fns = []
        self.decisions = list(prefix)
        self.dpos = 0
        self.newdecs = []
        self.cert = cert
        aborted = False
        self.memoryv = M.ObjV(tag="memory")
        self.xfv = M.ObjV(tag="xf")
        ctx = M.ObjV(tag="ctx")
        ctx.attrs["memory"] = self.memoryv
        ctx.attrs["interface"] = self.xfv
        ctx.attrs["xf"] = self.xfv
        wl = M.ObjV(cls=type(self.workload), real=self.workload)
        try:
            self.call_value(M.FuncV(fn, wl), [ctx], {})
        except _UnitExit:
            pass
        except _PathAbort:
            aborted = True
        except (_Unsupported, RecursionError) as exc:
            self.stats.incomplete = True
            if self.strict:
                raise
            msg = f"{type(exc).__name__}: {exc}"
            if msg not in self.errors and len(self.errors) < 25:
                self.errors.append(msg)
            return self.decisions, self.newdecs
        if exit_checks and not aborted:
            self._exit_checks()
        return self.decisions, self.newdecs

    # -- decisions -----------------------------------------------------

    def decide(self, n):
        if self.dpos < len(self.decisions):
            choice = self.decisions[self.dpos]
        else:
            frame = self.frames[-1] if self.frames else None
            site = (frame.file, frame.line) if frame else ("<unit>", 0)
            choice = 0
            self.decisions.append(0)
            self.newdecs.append((self.dpos, site, n))
        self.dpos += 1
        return choice

    def truth(self, value):
        if isinstance(value, M.Const):
            try:
                return bool(value.v)
            except Exception:
                return True
        if isinstance(value, (M.Sym,)):
            k = M.key(value)
            if k in self.assumed:
                return self.assumed[k]
            # Default True: unknown flags/pointers read as "set", which
            # terminates structure-descent loops on the default path.
            result = self.decide(2) == 0
            self.assumed[k] = result
            return result
        if isinstance(value, M.SeqV):
            return bool(value.items)
        if isinstance(value, M.SetV):
            return bool(value.keys)
        if isinstance(value, M.DictV):
            return bool(value.items)
        return True  # Addr, StructV, ObjV, FuncV, RangeV, _Packed, ...

    def _sym_prop(self, name, kl, kr, commutes=False):
        if commutes and repr(kr) < repr(kl):
            kl, kr = kr, kl
        prop = (name, kl, kr)
        if prop in self.cmpmemo:
            return self.cmpmemo[prop]
        result = self.decide(2) == 1  # default False: "not equal/less"
        self.cmpmemo[prop] = result
        return result

    def compare(self, op, left, right):
        if isinstance(left, M.Const) and isinstance(right, M.Const):
            try:
                return M.Const(_concrete_cmp(op, left.v, right.v))
            except Exception as exc:
                raise _PathAbort from exc
        if op in ("is", "isnot", "eq", "ne"):
            left_none = isinstance(left, M.Const) and left.v is None
            right_none = isinstance(right, M.Const) and right.v is None
            if left_none or right_none:
                other = right if left_none else left
                if isinstance(other, M.Sym):
                    same = self._sym_prop("isnone", M.key(other), None)
                else:
                    same = isinstance(other, M.Const) and other.v is None
                return M.Const(same if op in ("is", "eq") else not same)
        concrete = self._cmp_addrish(op, left, right)
        if concrete is not None:
            return M.Const(concrete)
        membership = self._cmp_membership(op, left, right)
        if membership is not None:
            return M.Const(membership)
        kl, kr = M.key(left), M.key(right)
        if op in ("eq", "ne", "is", "isnot"):
            result = self._sym_prop("eq", kl, kr, commutes=True)
            return M.Const(result if op in ("eq", "is") else not result)
        if op == "lt":
            return M.Const(self._sym_prop("lt", kl, kr))
        if op == "gt":
            return M.Const(self._sym_prop("lt", kr, kl))
        if op == "ge":
            return M.Const(not self._sym_prop("lt", kl, kr))
        if op == "le":
            return M.Const(not self._sym_prop("lt", kr, kl))
        raise _Unsupported(f"comparison {op}")

    def _cmp_addrish(self, op, left, right):
        if isinstance(left, M.StructV) and isinstance(right, M.StructV):
            if left.cls is right.cls:
                left, right = left.addr, right.addr
            elif op in ("eq", "ne"):
                return op == "ne"
        if isinstance(left, M.Addr) and isinstance(right, M.Addr):
            if left.base == right.base:
                return _concrete_cmp(op, left.off, right.off)
            if left.base[0] != "x" and right.base[0] != "x" \
                    and op in ("eq", "ne"):
                return op == "ne"
            return None
        for addr, const in ((left, right), (right, left)):
            if isinstance(addr, M.Addr) and isinstance(const, M.Const) \
                    and const.v == 0 and op in ("eq", "ne"):
                return op == "ne"
        return None

    def _cmp_membership(self, op, left, right):
        if op not in ("in", "notin"):
            return None
        if isinstance(right, M.Const):
            if isinstance(left, M.Const):
                try:
                    found = left.v in right.v
                except Exception as exc:
                    raise _PathAbort from exc
            else:
                found = False  # abstract value in a concrete container
            return found if op == "in" else not found
        if isinstance(right, M.SetV):
            found = M.key(left) in right.keys
        elif isinstance(right, M.SeqV):
            target = M.key(left)
            found = any(M.key(item) == target for item in right.items)
        elif isinstance(right, M.DictV):
            found = M.key(left) in right.items
        else:
            return None
        return found if op == "in" else not found

    def fresh_sym(self, tag):
        self.nsym += 1
        return M.Sym((tag, self.nsym))

    # -- coverage / provenance -----------------------------------------

    def _site(self):
        frame = self.frames[-1]
        return frame.file, frame.line

    def _stack(self):
        return tuple(
            f"{f.file}:{f.line} in {f.qual}"
            for f in reversed(self.frames)
        )

    def _cover(self, file, first, last):
        if self.cert:
            for line in range(first, last + 1):
                self.cov.add((file, line))

    def _mark_uncert(self):
        if self.cert and self.frames:
            frame = self.frames[-1]
            for line in range(frame.span[0], frame.span[1] + 1):
                self.uncert.add((frame.file, line))

    def _note_store_span(self, site):
        """Remember the enclosing function span of a PM-op site so a
        later incompleteness verdict can uncertify it (deferred
        certification: a bare store is only guilty once it crosses a
        bare fence dirty or reaches path exit non-persisted)."""
        if self.cert and self.frames:
            frame = self.frames[-1]
            self.store_spans[site] = (
                frame.file, frame.span[0], frame.span[1]
            )

    def _uncert_site(self, site):
        if not self.cert or site is None:
            return
        span = self.store_spans.get(site)
        if span is None:
            self.uncert.add(site)
            return
        file, first, last = span
        for line in range(first, last + 1):
            self.uncert.add((file, line))

    def _mark_unsafe_fn(self):
        if self.cert and self.frames:
            frame = self.frames[-1]
            if frame.node is not None:
                self.unsafe_spans.add((
                    frame.file, frame.node.lineno,
                    frame.node.end_lineno or frame.node.lineno,
                ))

    def emit(self, rule, message, site=None, function=None, stack=None):
        file, line = site if site is not None else self._site()
        finding = Finding(
            rule=rule, file=file, line=line, message=message,
            function=(function if function is not None
                      else (self.frames[-1].qual if self.frames else "")),
            stack=stack if stack is not None else self._stack(),
        )
        self.findings.setdefault(finding.key(), finding)
        # Findings poison their enclosing inline stack: none of its
        # lines is certified.
        if self.cert:
            for frame in self.frames:
                if frame.node is not None:
                    self.unsafe_spans.add((
                        frame.file, frame.node.lineno,
                        frame.node.end_lineno or frame.node.lineno,
                    ))

    # -- address helpers -----------------------------------------------

    def to_addr(self, value):
        if isinstance(value, M.Addr):
            return value
        if isinstance(value, M.StructV):
            return value.addr
        if isinstance(value, M.Const):
            if value.v == 0 or value.v is None:
                raise _PathAbort  # NULL dereference path
            if isinstance(value.v, int):
                return M.Addr(("abs", value.v), 0)
        if isinstance(value, M.Sym):
            return M.Addr(("x", value.k), 0)
        raise _Unsupported(f"not an address: {value!r}")

    def _concrete_size(self, value, default=8):
        if isinstance(value, M.Const) and isinstance(value.v, int):
            return max(1, value.v)
        return default

    # -- persistence operations ----------------------------------------

    def op_store(self, addr, size, value, nt=False):
        base, start = addr.base, addr.off
        end = start + size
        file, line = self._site()
        in_lib = self.lib_depth > 0
        if self.state.overlaps_commit(base, start, end):
            self._mark_uncert()
        seg = Seg(DIRTY, store_site=(file, line),
                  store_fn=self.frames[-1].qual if self.frames else "",
                  store_stack=self._stack(), lib=in_lib)
        if nt:
            seg.status = NT
            self._mark_uncert()
        elif in_lib:
            pass  # trusted library write: no finding, certified
        elif self.state.tx is not None:
            seg.status = TXSTORED
            if not self.state.is_protected(base, start, end):
                # Not logged *yet* — PMDK tolerates add-after-write,
                # so defer the verdict until commit.
                self._mark_uncert()
                self.state.tx_pending.append(
                    (base, start, end, (file, line),
                     self.frames[-1].qual if self.frames else "",
                     self._stack())
                )
        else:
            # Plain store outside tx/lib: certification is deferred —
            # the line stays certified unless this seg later crosses a
            # bare fence dirty or reaches path exit non-persisted.
            self._note_store_span((file, line))
        self.state.write_seg(base, start, end, seg)
        self.state.stored_vals[(base, start, size)] = value
        self.state.load_memo.pop((base, start, size), None)

    def op_load(self, addr, size, raw=False):
        base, start = addr.base, addr.off
        hit = self.state.stored_vals.get((base, start, size))
        if hit is not None:
            return hit
        if base in self.state.zeroed and not self.state.segs_overlapping(
                base, start, start + size):
            return M.Const(bytes(size) if raw else 0)
        memo = self.state.load_memo.get((base, start, size))
        if memo is None:
            memo = self.fresh_sym("ld")
            self.state.load_memo[(base, start, size)] = memo
        return memo

    def op_flush(self, addr, size, symbolic_size=False):
        base, start = addr.base, addr.off
        end = (start + size) if not symbolic_size else (1 << 40)
        overlapping = self.state.segs_overlapping(base, start, end)
        if (not self.lib_depth and not symbolic_size and overlapping
                and all(item[2].status in (FLUSHED, PERSISTED)
                        and not item[2].lib for item in overlapping)):
            covered = 0
            for seg_start, seg_end, _seg in sorted(overlapping):
                lo = max(seg_start, start + covered)
                if lo > start + covered:
                    break
                covered = min(seg_end, end) - start
            if covered >= end - start:
                self.emit(
                    "XF-F001",
                    "flush of a range that is already flushed or "
                    "persisted (redundant writeback)",
                )
        file, line = self._site()
        for seg_start, seg_end, seg in list(overlapping):
            lo, hi = max(seg_start, start), min(seg_end, end)
            if lo >= hi:
                continue
            new = seg.clone()
            if new.status in (DIRTY, NT, TXSTORED):
                if new.status == DIRTY and new.crossed and not new.reported \
                        and not new.lib:
                    new.reported = True
                    self.emit(
                        "XF-P003",
                        "store left dirty across an earlier persistence "
                        "barrier before this flush; a failure at that "
                        "barrier exposes the stale value",
                        site=new.store_site, function=new.store_fn,
                        stack=new.store_stack,
                    )
                    self._uncert_site(new.store_site)
                new.status = FLUSHED
                new.flush_site = (file, line)
                new.flush_fn = self.frames[-1].qual if self.frames else ""
                new.flush_stack = self._stack()
                self._note_store_span((file, line))
            self.state.write_seg(base, lo, hi, new, purge=False)

    def op_fence(self, scope=None):
        pending = False
        for base, (seg_start, seg_end, seg) in list(self.state.all_segs()):
            in_scope = scope is None or (
                base == scope[0]
                and seg_start < scope[2] and scope[1] < seg_end
            )
            if seg.status in (FLUSHED, NT) and in_scope:
                seg.status = PERSISTED
                pending = True
            elif seg.status == DIRTY and not seg.lib and scope is None:
                # Only a *bare* fence is an ordering barrier the
                # program leans on; targeted persists of unrelated
                # ranges (e.g. a library-internal atomic word write)
                # do not make an earlier dirty store suspicious.
                seg.crossed = True
                self._uncert_site(seg.store_site)
            elif seg.status in (DIRTY, FLUSHED, NT) and not seg.lib:
                # A scoped persist of an unrelated range is still a
                # dynamic ordering point: a failure point may land on
                # its fence while this data is in flight.  Not a
                # finding, but the site is not certified.
                self._uncert_site(
                    seg.flush_site if seg.status == FLUSHED
                    else seg.store_site
                )
        if scope is None and not self.lib_depth and not pending:
            self.emit(
                "XF-F002",
                "ordering fence with no pending writeback since the "
                "previous fence",
            )

    def op_persist(self, addr, size, symbolic_size=False):
        self.op_flush(addr, size, symbolic_size)
        if symbolic_size:
            self.op_fence(scope=(addr.base, 0, 1 << 40))
        else:
            self.op_fence(scope=(addr.base, addr.off, addr.off + size))

    def op_tx_add(self, addr, size, symbolic_size=False):
        base, start = addr.base, addr.off
        end = (start + size) if not symbolic_size else (1 << 40)
        if self.state.tx is None:
            raise _PathAbort  # add outside a transaction raises
        if not self.lib_depth and not symbolic_size \
                and self.state.is_protected(base, start, end):
            self.emit(
                "XF-T002",
                "range is already covered by the transaction's undo "
                "log; duplicate TX_ADD pays a redundant snapshot",
            )
        self.state.protect(base, start, end)

    def op_tx_commit(self):
        for base, start, end, site, fn, stack in self.state.tx_pending:
            if self.state.is_protected(base, start, end):
                continue
            self.emit(
                "XF-T001",
                "store inside a transaction with no TX_ADD covering "
                "it before commit; not undo-logged and not flushed "
                "at commit",
                site=site, function=fn, stack=stack,
            )
            for _s, _e, seg in self.state.segs_overlapping(
                    base, start, end):
                seg.reported = True
        self.state.tx_pending = []
        had_adds = any(self.state.prot.values())
        for base, spans in self.state.prot.items():
            for start, end in spans:
                for _s, _e, seg in self.state.segs_overlapping(
                        base, start, end):
                    if seg.status in (DIRTY, TXSTORED, FLUSHED):
                        seg.status = PERSISTED
        if had_adds:
            # Commit's sfence is a full drain (library-internal: no
            # F002, but outstanding dirty stores cross a barrier).
            for _base, (_s, _e, seg) in self.state.all_segs():
                if seg.status in (FLUSHED, NT):
                    seg.status = PERSISTED
                elif seg.status == DIRTY and not seg.lib \
                        and not seg.reported:
                    seg.crossed = True
                    self._uncert_site(seg.store_site)
        self.state.clear_protections()
        self.state.tx = None

    def op_tx_rollback(self):
        for base, spans in self.state.prot.items():
            for start, end in spans:
                for _s, _e, seg in self.state.segs_overlapping(
                        base, start, end):
                    if seg.status in (DIRTY, TXSTORED, FLUSHED):
                        seg.status = PERSISTED  # restored from the log
        self.state.tx_pending = []
        self.state.clear_protections()
        self.state.tx = None

    def _exit_checks(self):
        for _base, (_start, _end, seg) in self.state.all_segs():
            if seg.lib or seg.reported:
                continue
            if seg.status == DIRTY:
                self.emit(
                    "XF-P001",
                    "store never written back on a path reaching the "
                    "end of the pre-failure stage",
                    site=seg.store_site, function=seg.store_fn,
                    stack=seg.store_stack,
                )
                seg.reported = True
                self._uncert_site(seg.store_site)
            elif seg.status == FLUSHED:
                self.emit(
                    "XF-P002",
                    "flushed range with no ordering fence before the "
                    "end of the pre-failure stage",
                    site=seg.flush_site, function=seg.flush_fn,
                    stack=seg.flush_stack,
                )
                seg.reported = True
                self._uncert_site(seg.flush_site)
            elif seg.status == NT:
                self.emit(
                    "XF-P004",
                    "non-temporal store with no drain before the end "
                    "of the pre-failure stage",
                    site=seg.store_site, function=seg.store_fn,
                    stack=seg.store_stack,
                )
                seg.reported = True
                self._uncert_site(seg.store_site)


def _concrete_cmp(op, a, b):
    if op == "eq":
        return a == b
    if op == "ne":
        return a != b
    if op == "lt":
        return a < b
    if op == "le":
        return a <= b
    if op == "gt":
        return a > b
    if op == "ge":
        return a >= b
    if op == "is":
        return a is b
    if op == "isnot":
        return a is not b
    if op == "in":
        return a in b
    if op == "notin":
        return a not in b
    raise _Unsupported(f"comparison {op}")


# ----------------------------------------------------------------------
# Statements and expressions (engine continued)
# ----------------------------------------------------------------------

def _engine(cls):
    """Attach additional methods defined below to :class:`Interp`."""
    def deco(fn):
        setattr(cls, fn.__name__, fn)
        return fn
    return deco


_method = _engine(Interp)


@_method
def exec_body(self, body):
    for stmt in body:
        self.exec_stmt(stmt)


@_method
def exec_stmt(self, stmt):
    self.stats.steps += 1
    if self.stats.steps > self.max_steps:
        self.stats.incomplete = True
        raise _Unsupported("step budget exceeded")
    frame = self.frames[-1]
    frame.line = stmt.lineno
    frame.span = _stmt_span(stmt)
    self._cover(frame.file, frame.span[0], frame.span[1])
    kind = type(stmt).__name__
    handler = getattr(self, "_st_" + kind, None)
    if handler is None:
        raise _Unsupported(f"statement {kind}")
    handler(stmt)


@_method
def _st_Expr(self, stmt):
    self.eval_expr(stmt.value)


@_method
def _st_Assign(self, stmt):
    value = self.eval_expr(stmt.value)
    for target in stmt.targets:
        self.assign(target, value)


@_method
def _st_AugAssign(self, stmt):
    op = M.AST_BINOPS.get(type(stmt.op).__name__)
    if op is None:
        raise _Unsupported(f"augassign {type(stmt.op).__name__}")
    current = self.eval_expr(_as_load(stmt.target))
    value = self.binop_values(op, current, self.eval_expr(stmt.value))
    self.assign(stmt.target, value)


@_method
def _st_AnnAssign(self, stmt):
    if stmt.value is not None:
        self.assign(stmt.target, self.eval_expr(stmt.value))


@_method
def _st_Return(self, stmt):
    value = self.eval_expr(stmt.value) if stmt.value else M.Const(None)
    raise _Return(value)


@_method
def _st_Pass(self, stmt):
    pass




@_method
def _st_Global(self, stmt):
    pass


@_method
def _st_Nonlocal(self, stmt):
    pass


@_method
def _st_Break(self, stmt):
    raise _Break


@_method
def _st_Continue(self, stmt):
    raise _Continue


@_method
def _st_Raise(self, stmt):
    raise _PathAbort


@_method
def _st_Assert(self, stmt):
    value = self.eval_expr(stmt.test)
    if isinstance(value, M.Const):
        if not self.truth(value):
            raise _PathAbort
    elif isinstance(value, M.Sym):
        k = M.key(value)
        if self.assumed.get(k) is False:
            raise _PathAbort
        self.assumed[k] = True


@_method
def _st_Delete(self, stmt):
    frame = self.frames[-1]
    for target in stmt.targets:
        if isinstance(target, ast.Name):
            frame.env.pop(target.id, None)
        elif isinstance(target, ast.Subscript):
            obj = self.eval_expr(target.value)
            if isinstance(obj, M.DictV):
                idx = self.eval_expr(target.slice)
                obj.items.pop(M.key(idx), None)


@_method
def _st_Import(self, stmt):
    frame = self.frames[-1]
    for alias in stmt.names:
        top = alias.name.split(".")[0]
        mod = sys.modules.get(alias.name if alias.asname else top)
        if mod is None:
            raise _Unsupported(f"import {alias.name}")
        frame.env[alias.asname or top] = M.Const(mod)


@_method
def _st_ImportFrom(self, stmt):
    frame = self.frames[-1]
    mod = sys.modules.get(stmt.module or "")
    if mod is None:
        raise _Unsupported(f"import from {stmt.module}")
    for alias in stmt.names:
        value = getattr(mod, alias.name, _MISSING)
        if value is _MISSING:
            raise _Unsupported(f"import {stmt.module}.{alias.name}")
        frame.env[alias.asname or alias.name] = self.wrap_real(value)


@_method
def _st_FunctionDef(self, stmt):
    frame = self.frames[-1]
    frame.env[stmt.name] = M.LambdaV(
        stmt, frame.env, frame.file, frame.qual + ".<locals>." + stmt.name
    )


@_method
def _st_If(self, stmt):
    if self.truth(self.eval_expr(stmt.test)):
        self.exec_body(stmt.body)
    else:
        self.exec_body(stmt.orelse)


@_method
def _st_While(self, stmt):
    iterations = 0
    broke = False
    forced = False
    while True:
        if not self.truth(self.eval_expr(stmt.test)):
            break
        iterations += 1
        if iterations > self.while_cap:
            self._mark_unsafe_fn()
            forced = True
            break
        try:
            self.exec_body(stmt.body)
        except _Break:
            broke = True
            break
        except _Continue:
            continue
    if not broke and not forced:
        self.exec_body(stmt.orelse)


@_method
def _st_For(self, stmt):
    iterable = self.eval_expr(stmt.iter)
    items = self.iter_items(iterable)
    broke = False
    forced = False
    if items is not None:
        if len(items) > 1024:
            raise _Unsupported("concrete loop too long")
        for item in items:
            self.assign(stmt.target, item)
            try:
                self.exec_body(stmt.body)
            except _Break:
                broke = True
                break
            except _Continue:
                continue
    else:
        # Unknown-length iteration: biased unroll, default = zero
        # iterations, alternatives explore up to ``loop_cap``.
        progressive = _progressive_indices(iterable)
        for i in range(self.loop_cap):
            if self.decide(2) == 0:
                break
            if progressive is not None:
                item = M.Const(progressive[0] + i * progressive[1])
            else:
                item = self.fresh_sym("it")
            self.assign(stmt.target, item)
            try:
                self.exec_body(stmt.body)
            except _Break:
                broke = True
                break
            except _Continue:
                continue
        else:
            self._mark_unsafe_fn()
            forced = True
    if not broke and not forced:
        self.exec_body(stmt.orelse)


def _progressive_indices(iterable):
    """(start, step) when ``iterable`` is a symbolic range with concrete
    start/step, so unrolled iterations get concrete indices."""
    if isinstance(iterable, M.ObjV) and iterable.tag == "symrange":
        start = iterable.attrs.get("start")
        step = iterable.attrs.get("step")
        if isinstance(start, M.Const) and isinstance(step, M.Const):
            return start.v, step.v
    return None


@_method
def _st_With(self, stmt):
    self._with_items(stmt, 0)


@_method
def _with_items(self, stmt, index):
    if index >= len(stmt.items):
        self.exec_body(stmt.body)
        return
    item = stmt.items[index]
    ctx = self.eval_expr(item.context_expr)
    if isinstance(ctx, M.ObjV) and ctx.tag == "tx":
        self._with_tx(stmt, index, ctx, item)
    elif isinstance(ctx, M.ObjV) and ctx.tag == "ctx_lib":
        self.lib_depth += 1
        try:
            if item.optional_vars is not None:
                self.assign(item.optional_vars, self.memoryv)
            self._with_items(stmt, index + 1)
        finally:
            self.lib_depth -= 1
    elif isinstance(ctx, M.ObjV) and ctx.tag == "ctx_noop":
        if item.optional_vars is not None:
            self.assign(item.optional_vars, M.Const(None))
        self._with_items(stmt, index + 1)
    else:
        raise _Unsupported(
            f"with-statement over {getattr(ctx, 'tag', type(ctx).__name__)}"
        )


@_method
def _with_tx(self, stmt, index, tx, item):
    state = self.state
    if state.tx is None:
        state.tx = tx
        tx.attrs["depth"] = 1
        outermost = True
    else:
        state.tx.attrs["depth"] += 1
        tx = state.tx
        outermost = False
    if item.optional_vars is not None:
        self.assign(item.optional_vars, tx)
    try:
        self._with_items(stmt, index + 1)
    except _PathAbort:
        tx.attrs["depth"] -= 1
        if outermost:
            self.op_tx_rollback()
        raise
    except (_Return, _Break, _Continue):
        tx.attrs["depth"] -= 1
        if outermost:
            self.op_tx_commit()
        raise
    tx.attrs["depth"] -= 1
    if outermost:
        self.op_tx_commit()


@_method
def _st_Try(self, stmt):
    try:
        try:
            self.exec_body(stmt.body)
        except _PathAbort:
            if not stmt.handlers:
                raise
            handler = stmt.handlers[0]
            if handler.name:
                self.frames[-1].env[handler.name] = self.fresh_sym("exc")
            self.exec_body(handler.body)
        else:
            self.exec_body(stmt.orelse)
    finally:
        self.exec_body(stmt.finalbody)


def _as_load(node):
    clone = ast.copy_location(
        type(node)(**{
            f: getattr(node, f)
            for f in node._fields if f != "ctx"
        }, ctx=ast.Load()), node,
    )
    ast.fix_missing_locations(clone)
    return clone


# -- expressions -------------------------------------------------------


@_method
def eval_expr(self, node):
    self.stats.steps += 1
    kind = type(node).__name__
    handler = getattr(self, "_ex_" + kind, None)
    if handler is None:
        raise _Unsupported(f"expression {kind}")
    return handler(node)


@_method
def _ex_Constant(self, node):
    return M.Const(node.value)


@_method
def _ex_Name(self, node):
    frame = self.frames[-1]
    value = frame.env.get(node.id, _MISSING)
    if value is not _MISSING:
        return value
    closure = frame.closure
    while closure is not None:
        value = closure.env.get(node.id, _MISSING)
        if value is not _MISSING:
            return value
        closure = closure.closure
    if frame.globals is not None:
        value = frame.globals.get(node.id, _MISSING)
        if value is not _MISSING:
            return self.wrap_real(value)
    value = getattr(__import__("builtins"), node.id, _MISSING)
    if value is not _MISSING:
        return M.Const(value)
    raise _Unsupported(f"unresolved name {node.id!r}")


@_method
def _ex_NamedExpr(self, node):
    value = self.eval_expr(node.value)
    self.assign(node.target, value)
    return value


@_method
def _ex_Attribute(self, node):
    return self.get_attr(self.eval_expr(node.value), node.attr)


@_method
def _ex_Subscript(self, node):
    obj = self.eval_expr(node.value)
    return self.get_item(obj, node.slice)


@_method
def _ex_BinOp(self, node):
    op = M.AST_BINOPS.get(type(node.op).__name__)
    if op is None:
        raise _Unsupported(f"binop {type(node.op).__name__}")
    return self.binop_values(
        op, self.eval_expr(node.left), self.eval_expr(node.right)
    )


@_method
def binop_values(self, op, left, right):
    if isinstance(left, M.SeqV) or isinstance(right, M.SeqV):
        if op == "add" and isinstance(left, M.SeqV):
            other = (right.items if isinstance(right, M.SeqV)
                     else [self.wrap_real(x) for x in right.v])
            return M.SeqV(left.items + other, left.kind)
        if op == "mul":
            seq, count = ((left, right) if isinstance(left, M.SeqV)
                          else (right, left))
            if isinstance(count, M.Const):
                return M.SeqV(seq.items * count.v, seq.kind)
        raise _Unsupported(f"sequence binop {op}")
    # Keep symbolic-index address arithmetic anchored: same base,
    # deterministic representative displacement (module docstring).
    if isinstance(left, M.Addr) and not isinstance(right, (M.Const, M.Addr)):
        return M.Addr(left.base, left.off + _disp(M.key(right)))
    if isinstance(right, M.Addr) and not isinstance(left, (M.Const, M.Addr)) \
            and op == "add":
        return M.Addr(right.base, right.off + _disp(M.key(left)))
    try:
        result = M.binop(op, left, right)
    except Exception as exc:
        raise _PathAbort from exc
    return result


@_method
def _ex_UnaryOp(self, node):
    operand = self.eval_expr(node.operand)
    op = type(node.op).__name__
    if op == "Not":
        return M.Const(not self.truth(operand))
    if isinstance(operand, M.Const):
        try:
            if op == "USub":
                return M.Const(-operand.v)
            if op == "UAdd":
                return M.Const(+operand.v)
            if op == "Invert":
                return M.Const(~operand.v)
        except Exception as exc:
            raise _PathAbort from exc
    if op == "UAdd":
        return operand
    return M.Sym((op.lower(), M.key(operand)))


@_method
def _ex_BoolOp(self, node):
    is_and = isinstance(node.op, ast.And)
    value = None
    for expr in node.values:
        value = self.eval_expr(expr)
        result = self.truth(value)
        if is_and and not result:
            return value
        if not is_and and result:
            return value
    return value


@_method
def _ex_Compare(self, node):
    left = self.eval_expr(node.left)
    for op_node, comp in zip(node.ops, node.comparators):
        right = self.eval_expr(comp)
        op = _CMP_NAMES.get(type(op_node).__name__)
        if op is None:
            raise _Unsupported(f"compare {type(op_node).__name__}")
        result = self.compare(op, left, right)
        if not result.v:
            return M.Const(False)
        left = right
    return M.Const(True)


_CMP_NAMES = {
    "Eq": "eq", "NotEq": "ne", "Lt": "lt", "LtE": "le", "Gt": "gt",
    "GtE": "ge", "Is": "is", "IsNot": "isnot", "In": "in",
    "NotIn": "notin",
}


@_method
def _ex_IfExp(self, node):
    if self.truth(self.eval_expr(node.test)):
        return self.eval_expr(node.body)
    return self.eval_expr(node.orelse)


@_method
def _ex_List(self, node):
    return M.SeqV([self.eval_expr(e) for e in node.elts], "list")


@_method
def _ex_Tuple(self, node):
    items = [self.eval_expr(e) for e in node.elts]
    if all(isinstance(item, M.Const) for item in items):
        try:
            return M.Const(tuple(item.v for item in items))
        except Exception:
            pass
    return M.SeqV(items, "tuple")


@_method
def _ex_Set(self, node):
    items = [self.eval_expr(e) for e in node.elts]
    if all(isinstance(item, M.Const) for item in items):
        try:
            return M.Const(set(item.v for item in items))
        except Exception:
            pass
    return M.SetV({M.key(item) for item in items})


@_method
def _ex_Dict(self, node):
    result = M.DictV()
    for key_node, value_node in zip(node.keys, node.values):
        if key_node is None:
            spread = self.eval_expr(value_node)
            if isinstance(spread, M.DictV):
                result.items.update(spread.items)
            elif isinstance(spread, M.Const):
                for k, v in spread.v.items():
                    wrapped = self.wrap_real(k)
                    result.items[M.key(wrapped)] = (
                        wrapped, self.wrap_real(v))
            else:
                raise _Unsupported("dict spread")
            continue
        key = self.eval_expr(key_node)
        result.items[M.key(key)] = (key, self.eval_expr(value_node))
    return result


@_method
def _ex_Lambda(self, node):
    frame = self.frames[-1]
    return M.LambdaV(node, frame.env, frame.file,
                     frame.qual + ".<lambda>")


@_method
def _ex_JoinedStr(self, node):
    parts = []
    for piece in node.values:
        if isinstance(piece, ast.Constant):
            parts.append(piece.value)
            continue
        value = self.eval_expr(piece.value)
        if isinstance(value, M.Const):
            parts.append(str(value.v))
        else:
            return self.fresh_sym("fstr")
    return M.Const("".join(parts))


@_method
def _ex_FormattedValue(self, node):
    value = self.eval_expr(node.value)
    if isinstance(value, M.Const):
        return M.Const(str(value.v))
    return self.fresh_sym("fstr")


@_method
def _ex_Starred(self, node):
    return self.eval_expr(node.value)


@_method
def _ex_ListComp(self, node):
    return M.SeqV(self._comp_items(node), "list")


@_method
def _ex_GeneratorExp(self, node):
    return M.SeqV(self._comp_items(node), "list")


@_method
def _ex_SetComp(self, node):
    return M.SetV({M.key(item) for item in self._comp_items(node)})


@_method
def _ex_DictComp(self, node):
    result = M.DictV()
    for key, value in self._comp_items(node, pairs=True):
        result.items[M.key(key)] = (key, value)
    return result


@_method
def _comp_items(self, node, pairs=False):
    out = []

    def run(gen_index):
        if gen_index >= len(node.generators):
            if pairs:
                out.append((self.eval_expr(node.key),
                            self.eval_expr(node.value)))
            else:
                out.append(self.eval_expr(node.elt))
            return
        gen = node.generators[gen_index]
        items = self.iter_items(self.eval_expr(gen.iter))
        if items is None:
            raise _Unsupported("comprehension over unknown iterable")
        if len(items) > 1024:
            raise _Unsupported("comprehension too long")
        for item in items:
            self.assign(gen.target, item)
            if all(self.truth(self.eval_expr(cond))
                   for cond in gen.ifs):
                run(gen_index + 1)

    run(0)
    return out


# -- assignment targets ------------------------------------------------


@_method
def assign(self, target, value):
    if isinstance(target, ast.Name):
        self.frames[-1].env[target.id] = value
    elif isinstance(target, (ast.Tuple, ast.List)):
        items = self.iter_items(value)
        if items is None:
            items = [self.fresh_sym("un") for _ in target.elts]
        if len(items) != len(target.elts):
            raise _PathAbort
        for sub, item in zip(target.elts, items):
            self.assign(sub, item)
    elif isinstance(target, ast.Attribute):
        self.set_attr(self.eval_expr(target.value), target.attr, value)
    elif isinstance(target, ast.Subscript):
        self.set_item(self.eval_expr(target.value), target.slice, value)
    elif isinstance(target, ast.Starred):
        self.assign(target.value, value)
    else:
        raise _Unsupported(f"assign target {type(target).__name__}")


# -- attribute access --------------------------------------------------


class _Link:
    __slots__ = ("env", "closure")

    def __init__(self, env, closure=None):
        self.env = env
        self.closure = closure


def _is_runtime(fn):
    mod = getattr(fn, "__module__", "") or ""
    return mod.startswith(RUNTIME_PREFIXES)


_STRUCT_PRIMS = ("field_addr", "field_range", "whole_range",
                 "offset_of", "size_of")


@_method
def get_attr(self, obj, name):
    if isinstance(obj, M.ObjV):
        tag = obj.tag
        if tag == "pool":
            if name == "root":
                return self._pool_root(obj)
            if name == "memory":
                return self.memoryv
            if name == "base":
                return M.Addr(("pool", obj.attrs["name"]), 0)
            if name in ("log_base", "log_end"):
                return self.fresh_sym("pool")
            return M.PrimV(obj, name)
        if tag in ("memory", "xf", "tx"):
            if tag == "memory" and name in ("roi_active",
                                            "detection_complete"):
                return M.Const(True)
            return M.PrimV(obj, name)
        value = obj.attrs.get(name, _MISSING)
        if value is not _MISSING:
            return value
        cls = obj.cls
        if cls is None and obj.real is not None:
            cls = type(obj.real)
        if cls is not None:
            value = getattr(cls, name, _MISSING)
            if value is not _MISSING:
                if isinstance(value, property):
                    if value.fget is None:
                        raise _Unsupported(f"write-only property {name}")
                    return self.call_value(
                        M.FuncV(value.fget, obj), [], {})
                if isinstance(value, types.FunctionType):
                    return M.FuncV(value, obj)
                return self.wrap_real(value)
        if obj.real is not None:
            value = getattr(obj.real, name, _MISSING)
            if value is not _MISSING:
                return self.wrap_real(value)
        raise _Unsupported(
            f"attribute {name!r} on {obj!r}"
        )
    if isinstance(obj, M.StructV):
        cls = obj.cls
        field = cls.FIELDS.get(name)
        if field is not None:
            faddr = M.Addr(obj.addr.base, obj.addr.off + field.offset)
            if isinstance(field, Embed):
                return M.StructV(field.struct_cls, faddr)
            if isinstance(field, _ArrayField):
                return M.ArrayV(field, faddr)
            return self.op_load(faddr, field.size,
                                raw=isinstance(field, Blob))
        if name == "address":
            return obj.addr
        if name == "memory":
            return self.memoryv
        if name in ("SIZE", "ALIGN"):
            return M.Const(getattr(cls, name))
        if name == "FIELDS":
            return M.Const(cls.FIELDS)
        if name in _STRUCT_PRIMS:
            return M.PrimV(obj, name)
        value = getattr(cls, name, _MISSING)
        if isinstance(value, types.FunctionType) and not _is_runtime(value):
            return M.FuncV(value, obj)
        if isinstance(value, property) and value.fget is not None \
                and not _is_runtime(value.fget):
            return self.call_value(M.FuncV(value.fget, obj), [], {})
        raise _Unsupported(f"struct attribute {cls.__name__}.{name}")
    if isinstance(obj, M.ArrayV):
        if name in ("element_range",):
            return M.PrimV(obj, name)
        raise _Unsupported(f"array attribute {name}")
    if isinstance(obj, M.RangeV):
        if name == "start":
            return obj.addr
        if name == "size":
            return M.Const(obj.size)
        if name == "end":
            return M.Addr(obj.addr.base, obj.addr.off + obj.size)
        raise _Unsupported(f"range attribute {name}")
    if isinstance(obj, M.Const):
        value = getattr(obj.v, name, _MISSING)
        if value is _MISSING:
            raise _Unsupported(f"attribute {name!r} on {obj.v!r}")
        return self.wrap_real(value)
    if isinstance(obj, M.Sym):
        return M.Sym(("attr", obj.k, name))
    if isinstance(obj, (M.SeqV, M.DictV, M.SetV)):
        return M.PrimV(obj, name)
    raise _Unsupported(f"attribute {name!r} on {type(obj).__name__}")


@_method
def set_attr(self, obj, name, value):
    if isinstance(obj, M.StructV):
        field = obj.cls.FIELDS.get(name)
        if field is None or isinstance(field, (Embed, _ArrayField)):
            raise _Unsupported(
                f"store to struct attribute {obj.cls.__name__}.{name}"
            )
        faddr = M.Addr(obj.addr.base, obj.addr.off + field.offset)
        self.op_store(faddr, field.size, value)
        return
    if isinstance(obj, M.ObjV):
        obj.attrs[name] = value
        return
    raise _Unsupported(f"attribute store on {type(obj).__name__}")


# -- subscripts --------------------------------------------------------


@_method
def _array_addr(self, arr, idx):
    esize = arr.field.element.size
    if isinstance(idx, M.Const) and isinstance(idx.v, int):
        i = idx.v
        if i < 0:
            i += arr.field.length
        if not 0 <= i < arr.field.length:
            raise _PathAbort  # IndexError path
    else:
        i = (_disp(M.key(idx)) // 8) % arr.field.length
    return M.Addr(arr.addr.base, arr.addr.off + i * esize)


@_method
def get_item(self, obj, slice_node):
    if isinstance(slice_node, ast.Slice):
        return self._get_slice(obj, slice_node)
    idx = self.eval_expr(slice_node)
    if isinstance(obj, M.ArrayV):
        elem = obj.field.element
        return self.op_load(self._array_addr(obj, idx), elem.size,
                            raw=isinstance(elem, Blob))
    if isinstance(obj, M.SeqV):
        if isinstance(idx, M.Const) and isinstance(idx.v, int):
            try:
                return obj.items[idx.v]
            except IndexError as exc:
                raise _PathAbort from exc
        return M.Sym(("getitem", M.key(obj), M.key(idx)))
    if isinstance(obj, _Packed):
        if isinstance(idx, M.Const) and isinstance(idx.v, int):
            try:
                return obj.vals[idx.v]
            except IndexError as exc:
                raise _PathAbort from exc
        return self.fresh_sym("pk")
    if isinstance(obj, M.Const):
        if isinstance(idx, M.Const):
            try:
                return self.wrap_real(obj.v[idx.v])
            except _Unsupported:
                raise
            except Exception as exc:
                raise _PathAbort from exc
        return M.Sym(("getitem", M.key(obj), M.key(idx)))
    if isinstance(obj, M.DictV):
        hit = obj.items.get(M.key(idx))
        if hit is None:
            raise _PathAbort  # KeyError path
        return hit[1]
    if isinstance(obj, M.Sym):
        return M.Sym(("getitem", obj.k, M.key(idx)))
    raise _Unsupported(f"subscript on {type(obj).__name__}")


@_method
def _get_slice(self, obj, node):
    def bound(expr):
        if expr is None:
            return None
        value = self.eval_expr(expr)
        if isinstance(value, M.Const):
            return value.v
        return _MISSING

    lo, hi, step = bound(node.lower), bound(node.upper), bound(node.step)
    if _MISSING in (lo, hi, step):
        return self.fresh_sym("slice")
    if isinstance(obj, M.SeqV):
        return M.SeqV(obj.items[lo:hi:step], obj.kind)
    if isinstance(obj, M.Const):
        try:
            return self.wrap_real(obj.v[lo:hi:step])
        except _Unsupported:
            raise
        except Exception as exc:
            raise _PathAbort from exc
    return self.fresh_sym("slice")


@_method
def set_item(self, obj, slice_node, value):
    if isinstance(slice_node, ast.Slice):
        raise _Unsupported("slice assignment")
    idx = self.eval_expr(slice_node)
    if isinstance(obj, M.ArrayV):
        elem = obj.field.element
        self.op_store(self._array_addr(obj, idx), elem.size, value)
        return
    if isinstance(obj, M.SeqV):
        if isinstance(idx, M.Const) and isinstance(idx.v, int):
            try:
                obj.items[idx.v] = value
            except IndexError as exc:
                raise _PathAbort from exc
        else:
            # Weak update: position unknown, so every slot may change.
            for i in range(len(obj.items)):
                obj.items[i] = self.fresh_sym("wk")
        return
    if isinstance(obj, M.DictV):
        obj.items[M.key(idx)] = (idx, value)
        return
    raise _Unsupported(f"subscript store on {type(obj).__name__}")


@_method
def iter_items(self, value):
    """Concrete item list of an iterable value, or None if unknown."""
    if isinstance(value, M.SeqV):
        return list(value.items)
    if isinstance(value, _Packed):
        return list(value.vals)
    if isinstance(value, M.DictV):
        return [pair[0] for pair in value.items.values()]
    if isinstance(value, M.Const):
        v = value.v
        if isinstance(v, (range, list, tuple, str, bytes, set,
                          frozenset, dict)):
            return [self.wrap_real(x) for x in v]
        return None
    return None


# -- values from the real world ----------------------------------------


@_method
def wrap_real(self, v):
    if isinstance(v, M.Value):
        return v
    if v is None or isinstance(v, (bool, int, float, complex, str,
                                   bytes, frozenset, set, dict, range,
                                   tuple)):
        return M.Const(v)
    if isinstance(v, list):
        return M.SeqV([self.wrap_real(x) for x in v], "list")
    if isinstance(v, (type, types.ModuleType)):
        return M.Const(v)
    if isinstance(v, types.MethodType):
        fn = v.__func__
        if fn in MODEL_FNS or isinstance(fn, types.FunctionType):
            return M.FuncV(fn, self.wrap_real(v.__self__))
        return M.Const(v)
    if isinstance(v, types.FunctionType):
        return M.FuncV(v)
    if callable(v):
        return M.Const(v)
    raise _Unsupported(f"cannot model value of type {type(v).__name__}")


# -- calls -------------------------------------------------------------


@_method
def _ex_Call(self, node):
    callee = self.eval_expr(node.func)
    args = []
    for arg in node.args:
        if isinstance(arg, ast.Starred):
            spread = self.iter_items(self.eval_expr(arg.value))
            if spread is None:
                raise _Unsupported("*args spread of unknown iterable")
            args.extend(spread)
        else:
            args.append(self.eval_expr(arg))
    kwargs = {}
    for kw in node.keywords:
        if kw.arg is None:
            spread = self.eval_expr(kw.value)
            if isinstance(spread, M.Const) and isinstance(spread.v, dict):
                for k, v in spread.v.items():
                    kwargs[k] = self.wrap_real(v)
            elif isinstance(spread, M.DictV):
                for key_v, val_v in spread.items.values():
                    if not isinstance(key_v, M.Const):
                        raise _Unsupported("**kwargs with symbolic key")
                    kwargs[key_v.v] = val_v
            else:
                raise _Unsupported("**kwargs spread")
        else:
            kwargs[kw.arg] = self.eval_expr(kw.value)
    return self.call_value(callee, args, kwargs)


@_method
def call_value(self, callee, args, kwargs):
    if isinstance(callee, M.FuncV):
        return self.call_function(callee.fn, callee.self_val, args,
                                  kwargs)
    if isinstance(callee, M.LambdaV):
        return self.call_lambda(callee, args, kwargs)
    if isinstance(callee, M.PrimV):
        return self.call_prim(callee, args, kwargs)
    if isinstance(callee, M.Sym):
        return M.Sym(("call", callee.k,
                      tuple(M.key(a) for a in args)))
    if isinstance(callee, M.Const):
        return self._call_concrete(callee.v, args, kwargs)
    raise _Unsupported(f"call on {type(callee).__name__}")


@_method
def _call_concrete(self, v, args, kwargs):
    if isinstance(v, type):
        return self.construct(v, args, kwargs)
    try:
        impl = _BUILTIN_IMPLS.get(v)
    except TypeError:
        impl = None
    if impl is not None:
        return impl(self, args, kwargs)
    if v is _structmod.pack:
        return self._call_struct_pack(args)
    if v is _structmod.unpack:
        return self._call_struct_unpack(args)
    if not callable(v):
        raise _PathAbort
    mod = getattr(v, "__module__", "") or ""
    bound_self = getattr(v, "__self__", None)
    pure = (
        mod in PURE_MODULES
        or isinstance(bound_self, (int, float, str, bytes, dict, list,
                                   tuple, set, frozenset, range))
    )
    if pure and all(isinstance(a, M.Const) for a in args) \
            and all(isinstance(a, M.Const) for a in kwargs.values()):
        try:
            return self.wrap_real(
                v(*[a.v for a in args],
                  **{k: a.v for k, a in kwargs.items()})
            )
        except _Unsupported:
            raise
        except Exception as exc:
            raise _PathAbort from exc
    if pure:
        return M.Sym((
            "call", getattr(v, "__qualname__", str(v)),
            tuple(M.key(a) for a in args),
            tuple(sorted((k, M.key(a)) for k, a in kwargs.items())),
        ))
    raise _Unsupported(f"call to {v!r}")


@_method
def _call_struct_pack(self, args):
    if not args or not isinstance(args[0], M.Const):
        raise _Unsupported("struct.pack with symbolic format")
    fmt = args[0].v
    vals = args[1:]
    if all(isinstance(a, M.Const) for a in vals):
        try:
            return M.Const(_structmod.pack(fmt, *[a.v for a in vals]))
        except Exception:
            pass
    return _Packed(fmt, vals)


@_method
def _call_struct_unpack(self, args):
    if not args or not isinstance(args[0], M.Const):
        raise _Unsupported("struct.unpack with symbolic format")
    fmt = args[0].v
    data = args[1] if len(args) > 1 else None
    if isinstance(data, _Packed) and data.fmt == fmt:
        return M.SeqV(list(data.vals), "tuple")
    if isinstance(data, M.Const):
        try:
            return M.Const(_structmod.unpack(fmt, data.v))
        except Exception as exc:
            raise _PathAbort from exc
    count = len(_structmod.unpack(fmt, bytes(_structmod.calcsize(fmt))))
    return M.SeqV([self.fresh_sym("up") for _ in range(count)], "tuple")


@_method
def construct(self, cls, args, kwargs):
    from repro.pm.address import AddressRange as _AR

    if issubclass(cls, Struct) and cls is not Struct:
        if len(args) < 2:
            raise _Unsupported(f"{cls.__name__}(...) call shape")
        return M.StructV(cls, self.to_addr(args[1]))
    if cls is _AR:
        return M.RangeV(self.to_addr(args[0]),
                        self._concrete_size(args[1]))
    if cls in (int, float, str, bytes, bool, list, tuple, dict, set,
               frozenset, range):
        impl = _BUILTIN_IMPLS.get(cls)
        if impl is not None:
            return impl(self, args, kwargs)
    mod = cls.__module__ or ""
    if mod.startswith(RUNTIME_PREFIXES):
        raise _Unsupported(f"construction of runtime class "
                           f"{cls.__name__}")
    if issubclass(cls, BaseException):
        raise _PathAbort
    obj = M.ObjV(cls=cls)
    init = cls.__init__
    if isinstance(init, types.FunctionType):
        self.call_value(M.FuncV(init, obj), args, kwargs)
    elif args or kwargs:
        raise _Unsupported(f"opaque constructor {cls.__name__}")
    return obj


@_method
def call_function(self, fn, self_val, args, kwargs):
    handler_name = MODEL_FNS.get(fn)
    if handler_name is not None:
        return getattr(self, handler_name)(self_val, args, kwargs)
    if _is_runtime(fn):
        raise _Unsupported(
            f"unmodeled runtime function {fn.__qualname__}"
        )
    node, path = _fn_node(fn)
    if _has_yield(node):
        self._skip_function(node, path)
        return self.fresh_sym("gen")
    if self.call_fns.count(fn) >= 2:
        self._skip_function(node, path)
        return self.fresh_sym("rec")
    if len(self.frames) > 48:
        raise _Unsupported("inline stack too deep")
    all_args = ([self_val] + list(args)) if self_val is not None \
        else list(args)
    env = self._bind_args(node.args, fn, all_args, dict(kwargs))
    frame = _Frame(path, fn.__qualname__, node, env, None,
                   fn.__globals__)
    self.inlined_fns.add(fn)
    self.frames.append(frame)
    self.call_fns.append(fn)
    try:
        self.exec_body(node.body)
        return M.Const(None)
    except _Return as ret:
        return ret.value
    finally:
        self.frames.pop()
        self.call_fns.pop()


@_method
def _skip_function(self, node, path):
    if self.cert:
        self.unsafe_spans.add(
            (path, node.lineno, node.end_lineno or node.lineno)
        )


@_method
def _bind_args(self, a, fn, args, kwargs):
    env = {}
    names = [x.arg for x in list(a.posonlyargs) + list(a.args)]
    defaults = list(getattr(fn, "__defaults__", None) or ())
    kw_defaults = dict(getattr(fn, "__kwdefaults__", None) or {})
    first_default = len(names) - len(defaults)
    for i, name in enumerate(names):
        if i < len(args):
            env[name] = args[i]
        elif name in kwargs:
            env[name] = kwargs.pop(name)
        elif i >= first_default:
            env[name] = self.wrap_real(defaults[i - first_default])
        else:
            raise _PathAbort  # TypeError: missing argument
    if a.vararg is not None:
        env[a.vararg.arg] = M.SeqV(args[len(names):], "tuple")
    elif len(args) > len(names):
        raise _PathAbort
    for kwonly in a.kwonlyargs:
        name = kwonly.arg
        if name in kwargs:
            env[name] = kwargs.pop(name)
        elif name in kw_defaults:
            env[name] = self.wrap_real(kw_defaults[name])
        else:
            raise _PathAbort
    if a.kwarg is not None:
        spill = M.DictV()
        for key_name, value in kwargs.items():
            const = M.Const(key_name)
            spill.items[M.key(const)] = (const, value)
        env[a.kwarg.arg] = spill
    elif kwargs:
        raise _PathAbort
    return env


@_method
def call_lambda(self, lam, args, kwargs):
    node = lam.node
    a = node.args
    globs = None
    hidden = lam.env.get("\x00g")
    if isinstance(hidden, dict):
        globs = hidden
    frame = _Frame(
        lam.file, lam.qualname,
        node if isinstance(node, ast.FunctionDef) else None,
        {}, _Link(lam.env), globs,
    )
    frame.line = node.lineno
    frame.span = (node.lineno, node.end_lineno or node.lineno)
    self.frames.append(frame)
    self.call_fns.append(lam)
    try:
        names = [x.arg for x in list(a.posonlyargs) + list(a.args)]
        defaults = list(a.defaults)
        first_default = len(names) - len(defaults)
        for i, name in enumerate(names):
            if i < len(args):
                frame.env[name] = args[i]
            elif name in kwargs:
                frame.env[name] = kwargs.pop(name)
            elif i >= first_default:
                frame.env[name] = self.eval_expr(
                    defaults[i - first_default])
            else:
                raise _PathAbort
        if a.vararg is not None:
            frame.env[a.vararg.arg] = M.SeqV(args[len(names):], "tuple")
        elif len(args) > len(names):
            raise _PathAbort
        for i, kwonly in enumerate(a.kwonlyargs):
            name = kwonly.arg
            if name in kwargs:
                frame.env[name] = kwargs.pop(name)
            elif a.kw_defaults[i] is not None:
                frame.env[name] = self.eval_expr(a.kw_defaults[i])
            else:
                raise _PathAbort
        if kwargs and a.kwarg is None:
            raise _PathAbort
        if isinstance(node, ast.Lambda):
            return self.eval_expr(node.body)
        try:
            self.exec_body(node.body)
            return M.Const(None)
        except _Return as ret:
            return ret.value
    finally:
        self.frames.pop()
        self.call_fns.pop()


# -- modeled runtime methods -------------------------------------------


@_method
def call_prim(self, prim, args, kwargs):
    recv, name = prim.recv, prim.name
    if isinstance(recv, M.ObjV):
        tag = recv.tag
        if tag == "memory":
            return self._prim_memory(name, args, kwargs)
        if tag == "xf":
            return self._prim_xf(name, args, kwargs)
        if tag == "pool":
            return self._prim_pool(recv, name, args, kwargs)
        if tag == "tx":
            return self._prim_tx(recv, name, args, kwargs)
    if isinstance(recv, M.StructV):
        return self._prim_struct(recv, name, args)
    if isinstance(recv, M.ArrayV):
        return self._prim_array(recv, name, args)
    if isinstance(recv, M.SeqV):
        return self._prim_seq(recv, name, args)
    if isinstance(recv, M.DictV):
        return self._prim_dict(recv, name, args)
    if isinstance(recv, M.SetV):
        return self._prim_set(recv, name, args)
    raise _Unsupported(f"method {name} on {type(recv).__name__}")


@_method
def _data_size(self, value):
    """Byte width of a value being stored."""
    if isinstance(value, _Packed):
        return value.size
    if isinstance(value, M.Const) and isinstance(value.v, (bytes, str)):
        return max(1, len(value.v))
    return 8


@_method
def _prim_memory(self, name, args, kwargs):
    if name in ("store", "nt_store"):
        addr = self.to_addr(args[0])
        self.op_store(addr, self._data_size(args[1]), args[1],
                      nt=(name == "nt_store"))
        return M.Const(None)
    if name == "load":
        addr = self.to_addr(args[0])
        size = args[1] if len(args) > 1 else kwargs.get("size")
        if isinstance(size, M.Const) and isinstance(size.v, int):
            return self.op_load(addr, size.v, raw=True)
        return self.fresh_sym("ld")
    if name == "flush":
        addr = self.to_addr(args[0])
        size = args[1] if len(args) > 1 else kwargs.get("size")
        if size is None:
            size = M.Const(1)
        if isinstance(size, M.Const) and isinstance(size.v, int):
            self.op_flush(addr, size.v)
        else:
            self.op_flush(addr, 0, symbolic_size=True)
        return M.Const(None)
    if name == "fence":
        self.op_fence(None)
        return M.Const(None)
    if name == "library_region":
        return M.ObjV(tag="ctx_lib")
    if name in ("hint_ordering_point", "emit_marker",
                "force_failure_point", "add_ordering_listener",
                "add_observer", "remove_observer"):
        return M.Const(None)
    if name == "is_persisted":
        return self.fresh_sym("persisted")
    if name == "current_tid":
        return M.Const(0)
    raise _Unsupported(f"memory.{name}")


@_method
def _register_commit(self, name_v, addr_v, size_v):
    addr = self.to_addr(addr_v)
    size = self._concrete_size(size_v)
    label = name_v.v if isinstance(name_v, M.Const) and name_v.v \
        else f"commit@{addr.base}+{addr.off}"
    self.state.add_commit_range(addr.base, addr.off, addr.off + size,
                                label)
    return M.Const(label)


@_method
def _prim_xf(self, name, args, kwargs):
    if name in ("complete_detection", "completeDetection"):
        raise _UnitExit
    if name in ("roi_begin", "roi_end", "RoIBegin", "RoIEnd",
                "skip_failure_begin", "skip_failure_end",
                "skip_detection_begin", "skip_detection_end",
                "add_failure_point", "addFailurePoint"):
        return M.Const(None)
    if name in ("add_commit_var", "addCommitVar"):
        size = args[1] if len(args) > 1 else kwargs.get("size",
                                                        M.Const(8))
        name_v = args[2] if len(args) > 2 else kwargs.get(
            "name", M.Const(None))
        return self._register_commit(name_v, args[0], size)
    if name in ("add_commit_range", "addCommitRange"):
        return self._register_commit(args[0], args[1], args[2])
    if name in ("roi", "skip_failure", "skip_detection"):
        return M.ObjV(tag="ctx_noop")
    raise _Unsupported(f"interface.{name}")


@_method
def _pool_root(self, pool):
    cls = pool.attrs.get("root_cls")
    base = ("root", pool.attrs["name"])
    if cls is None:
        return M.Addr(base, 0)
    return M.StructV(cls, M.Addr(base, 0))


@_method
def _do_alloc(self, args, kwargs):
    target = args[0] if args else kwargs.get("size_or_cls")
    zero = kwargs.get("zero", args[1] if len(args) > 1 else M.Const(True))
    self.nhandle += 1
    base = ("h", self.nhandle)
    if self.truth(zero):
        self.state.zeroed.add(base)
    addr = M.Addr(base, 0)
    if isinstance(target, M.Const) and isinstance(target.v, type) \
            and issubclass(target.v, Struct):
        return M.StructV(target.v, addr)
    return addr


@_method
def _prim_pool(self, pool, name, args, kwargs):
    if name == "alloc":
        return self._do_alloc(args, kwargs)
    if name == "free":
        self.state.drop_region(self._struct_or_addr(args[0]).base)
        return M.Const(None)
    if name == "transaction":
        if self.state.tx is not None:
            return self.state.tx
        tx = M.ObjV(tag="tx")
        tx.attrs["depth"] = 0
        return tx
    if name == "persist":
        addr = self.to_addr(args[0])
        size = args[1] if len(args) > 1 else kwargs.get("size",
                                                        M.Const(1))
        if isinstance(size, M.Const) and isinstance(size.v, int):
            self.op_persist(addr, size.v)
        else:
            self.op_persist(addr, 0, symbolic_size=True)
        return M.Const(None)
    if name == "close":
        return M.Const(None)
    raise _Unsupported(f"pool.{name}")


@_method
def _struct_or_addr(self, value):
    if isinstance(value, M.StructV):
        return value.addr
    return self.to_addr(value)


@_method
def _prim_tx(self, tx, name, args, kwargs):
    if name == "add":
        addr = self.to_addr(args[0])
        size = args[1] if len(args) > 1 else kwargs.get("size")
        if isinstance(size, M.Const) and isinstance(size.v, int):
            self.op_tx_add(addr, size.v)
        else:
            self.op_tx_add(addr, 0, symbolic_size=True)
        return M.Const(None)
    if name == "add_field":
        struct, fname = args[0], args[1]
        if not isinstance(struct, M.StructV) \
                or not isinstance(fname, M.Const):
            raise _Unsupported("tx.add_field with abstract operands")
        field = struct.cls.FIELDS.get(fname.v)
        if field is None:
            raise _PathAbort
        self.op_tx_add(
            M.Addr(struct.addr.base, struct.addr.off + field.offset),
            field.size,
        )
        return M.Const(None)
    if name == "add_struct":
        struct = args[0]
        if not isinstance(struct, M.StructV):
            raise _Unsupported("tx.add_struct of non-struct")
        self.op_tx_add(struct.addr, struct.cls.SIZE)
        return M.Const(None)
    if name == "alloc":
        # Transactional alloc gives NO write protection by itself.
        return self._do_alloc(args, kwargs)
    if name == "free":
        self.state.drop_region(self._struct_or_addr(args[0]).base)
        return M.Const(None)
    if name == "abort":
        raise _PathAbort
    raise _Unsupported(f"tx.{name}")


@_method
def _prim_struct(self, struct, name, args):
    cls, addr = struct.cls, struct.addr
    if name in ("offset_of", "size_of", "field_addr", "field_range"):
        fname = args[0]
        if not isinstance(fname, M.Const):
            raise _Unsupported(f"{name} with symbolic field name")
        field = cls.FIELDS.get(fname.v)
        if field is None:
            raise _PathAbort
        if name == "offset_of":
            return M.Const(field.offset)
        if name == "size_of":
            return M.Const(field.size)
        faddr = M.Addr(addr.base, addr.off + field.offset)
        if name == "field_addr":
            return faddr
        return M.RangeV(faddr, field.size)
    if name == "whole_range":
        return M.RangeV(addr, cls.SIZE)
    raise _Unsupported(f"struct method {name}")


@_method
def _prim_array(self, arr, name, args):
    if name == "element_range":
        return M.RangeV(self._array_addr(arr, args[0]),
                        arr.field.element.size)
    raise _Unsupported(f"array method {name}")


@_method
def _prim_seq(self, seq, name, args):
    items = seq.items
    if name == "append":
        items.append(args[0])
        return M.Const(None)
    if name == "extend":
        extra = self.iter_items(args[0])
        if extra is None:
            raise _Unsupported("extend with unknown iterable")
        items.extend(extra)
        return M.Const(None)
    if name == "insert":
        if not isinstance(args[0], M.Const):
            raise _Unsupported("insert at symbolic index")
        items.insert(args[0].v, args[1])
        return M.Const(None)
    if name == "pop":
        idx = args[0].v if args and isinstance(args[0], M.Const) else -1
        try:
            return items.pop(idx)
        except IndexError as exc:
            raise _PathAbort from exc
    if name == "remove":
        target = M.key(args[0])
        for i, item in enumerate(items):
            if M.key(item) == target:
                del items[i]
                return M.Const(None)
        raise _PathAbort  # ValueError path
    if name == "index":
        target = M.key(args[0])
        for i, item in enumerate(items):
            if M.key(item) == target:
                return M.Const(i)
        raise _PathAbort
    if name == "count":
        target = M.key(args[0])
        return M.Const(sum(1 for item in items
                           if M.key(item) == target))
    if name == "sort":
        if all(isinstance(item, M.Const) for item in items):
            try:
                items.sort(key=lambda c: c.v)
            except TypeError as exc:
                raise _PathAbort from exc
        return M.Const(None)
    if name == "reverse":
        items.reverse()
        return M.Const(None)
    if name == "clear":
        items.clear()
        return M.Const(None)
    if name == "copy":
        return M.SeqV(list(items), seq.kind)
    raise _Unsupported(f"list method {name}")


@_method
def _prim_dict(self, dv, name, args):
    if name == "get":
        hit = dv.items.get(M.key(args[0]))
        if hit is not None:
            return hit[1]
        return args[1] if len(args) > 1 else M.Const(None)
    if name == "setdefault":
        k = M.key(args[0])
        if k not in dv.items:
            dv.items[k] = (args[0],
                           args[1] if len(args) > 1 else M.Const(None))
        return dv.items[k][1]
    if name == "pop":
        hit = dv.items.pop(M.key(args[0]), None)
        if hit is not None:
            return hit[1]
        if len(args) > 1:
            return args[1]
        raise _PathAbort
    if name == "keys":
        return M.SeqV([pair[0] for pair in dv.items.values()], "list")
    if name == "values":
        return M.SeqV([pair[1] for pair in dv.items.values()], "list")
    if name == "items":
        return M.SeqV(
            [M.SeqV([pair[0], pair[1]], "tuple")
             for pair in dv.items.values()],
            "list",
        )
    if name == "update":
        if isinstance(args[0], M.DictV):
            dv.items.update(args[0].items)
            return M.Const(None)
        raise _Unsupported("dict.update with abstract arg")
    if name == "clear":
        dv.items.clear()
        return M.Const(None)
    raise _Unsupported(f"dict method {name}")


@_method
def _prim_set(self, sv, name, args):
    if name == "add":
        sv.keys.add(M.key(args[0]))
        return M.Const(None)
    if name == "discard":
        sv.keys.discard(M.key(args[0]))
        return M.Const(None)
    if name == "remove":
        k = M.key(args[0])
        if k not in sv.keys:
            raise _PathAbort
        sv.keys.discard(k)
        return M.Const(None)
    if name == "clear":
        sv.keys.clear()
        return M.Const(None)
    if name == "copy":
        return M.SetV(set(sv.keys))
    raise _Unsupported(f"set method {name}")


# -- MODEL_FNS handlers (libpmem-style helpers, pool lifecycle) --------


@_method
def _m_noop(self, self_val, args, kwargs):
    return M.Const(None)


@_method
def _m_pmem_flush(self, self_val, args, kwargs):
    addr = self.to_addr(args[1])
    size = args[2] if len(args) > 2 else kwargs.get("size", M.Const(1))
    if isinstance(size, M.Const) and isinstance(size.v, int):
        self.op_flush(addr, size.v)
    else:
        self.op_flush(addr, 0, symbolic_size=True)
    return M.Const(None)


@_method
def _m_pmem_drain(self, self_val, args, kwargs):
    self.op_fence(None)
    return M.Const(None)


@_method
def _m_pmem_persist(self, self_val, args, kwargs):
    addr = self.to_addr(args[1])
    size = args[2] if len(args) > 2 else kwargs.get("size", M.Const(1))
    if isinstance(size, M.Const) and isinstance(size.v, int):
        self.op_persist(addr, size.v)
    else:
        self.op_persist(addr, 0, symbolic_size=True)
    return M.Const(None)


@_method
def _m_pmem_memcpy_persist(self, self_val, args, kwargs):
    addr = self.to_addr(args[1])
    size = self._data_size(args[2])
    self.op_store(addr, size, args[2])
    self.op_persist(addr, size)
    return M.Const(None)


@_method
def _m_pmem_memcpy_nodrain(self, self_val, args, kwargs):
    addr = self.to_addr(args[1])
    self.op_store(addr, self._data_size(args[2]), args[2], nt=True)
    return M.Const(None)


@_method
def _m_pmem_memset_persist(self, self_val, args, kwargs):
    addr = self.to_addr(args[1])
    size = self._concrete_size(
        args[3] if len(args) > 3 else kwargs.get("size", M.Const(8)))
    value = args[2]
    if isinstance(value, M.Const) and isinstance(value.v, int):
        value = M.Const(bytes([value.v & 0xFF]) * size)
    self.op_store(addr, size, value)
    self.op_persist(addr, size)
    return M.Const(None)


@_method
def _m_pool_lifecycle(self, args, kwargs, created):
    name_v = args[1] if len(args) > 1 else kwargs.get("name")
    pool_name = name_v.v if isinstance(name_v, M.Const) else "?"
    root_cls_v = kwargs.get("root_cls")
    idx = 4 if created else 3
    if root_cls_v is None and len(args) > idx:
        root_cls_v = args[idx]
    root_cls = root_cls_v.v \
        if isinstance(root_cls_v, M.Const) and \
        isinstance(root_cls_v.v, type) else None
    pool = M.ObjV(tag="pool")
    pool.attrs["name"] = pool_name
    pool.attrs["root_cls"] = root_cls
    base = ("root", pool_name)
    if created:
        # A fresh pool zero-initializes its root; but creating inside
        # the measured stage is itself suspect, so it is not certified.
        self.state.zeroed.add(base)
        self._mark_uncert()
    return pool


@_method
def _m_pool_create(self, self_val, args, kwargs):
    return self._m_pool_lifecycle(args, kwargs, created=True)


@_method
def _m_pool_open(self, self_val, args, kwargs):
    return self._m_pool_lifecycle(args, kwargs, created=False)


@_method
def _m_struct_offset_of(self, self_val, args, kwargs):
    cls = self_val.v if isinstance(self_val, M.Const) else None
    fname = args[0]
    if cls is None or not isinstance(fname, M.Const):
        raise _Unsupported("offset_of with abstract operands")
    field = cls.FIELDS.get(fname.v)
    if field is None:
        raise _PathAbort
    return M.Const(field.offset)


@_method
def _m_struct_size_of(self, self_val, args, kwargs):
    cls = self_val.v if isinstance(self_val, M.Const) else None
    fname = args[0]
    if cls is None or not isinstance(fname, M.Const):
        raise _Unsupported("size_of with abstract operands")
    field = cls.FIELDS.get(fname.v)
    if field is None:
        raise _PathAbort
    return M.Const(field.size)


# -- builtins ----------------------------------------------------------


def _bi_len(self, args, kwargs):
    v = args[0]
    if isinstance(v, M.SeqV):
        return M.Const(len(v.items))
    if isinstance(v, M.SetV):
        return M.Const(len(v.keys))
    if isinstance(v, M.DictV):
        return M.Const(len(v.items))
    if isinstance(v, M.ArrayV):
        return M.Const(v.field.length)
    if isinstance(v, _Packed):
        return M.Const(v.size)
    if isinstance(v, M.Const):
        try:
            return M.Const(len(v.v))
        except Exception as exc:
            raise _PathAbort from exc
    return M.Sym(("len", M.key(v)))


def _bi_range(self, args, kwargs):
    if all(isinstance(a, M.Const) for a in args):
        try:
            return M.Const(range(*[a.v for a in args]))
        except Exception as exc:
            raise _PathAbort from exc
    rng = M.ObjV(tag="symrange")
    if len(args) == 1:
        rng.attrs["start"], rng.attrs["stop"] = M.Const(0), args[0]
        rng.attrs["step"] = M.Const(1)
    else:
        rng.attrs["start"], rng.attrs["stop"] = args[0], args[1]
        rng.attrs["step"] = args[2] if len(args) > 2 else M.Const(1)
    return rng


def _numeric1(py_fn, tag):
    def impl(self, args, kwargs):
        v = args[0] if args else M.Const(0)
        if not args:
            return M.Const(py_fn())
        if isinstance(v, M.Const) and len(args) == 1 and not kwargs:
            try:
                return M.Const(py_fn(v.v))
            except Exception as exc:
                raise _PathAbort from exc
        if all(isinstance(a, M.Const) for a in args) and not kwargs:
            try:
                return M.Const(py_fn(*[a.v for a in args]))
            except Exception as exc:
                raise _PathAbort from exc
        return M.Sym((tag, tuple(M.key(a) for a in args)))
    return impl


def _bi_bool(self, args, kwargs):
    if not args:
        return M.Const(False)
    return M.Const(self.truth(args[0]))


def _gather(self, args):
    """Items of either one iterable argument or the arguments."""
    if len(args) == 1:
        items = self.iter_items(args[0])
        if items is None:
            return None
        return items
    return list(args)


def _reduction(py_fn, tag):
    def impl(self, args, kwargs):
        items = _gather(self, args)
        if items is None:
            return M.Sym((tag, tuple(M.key(a) for a in args)))
        if not items:
            if py_fn is sum:
                return M.Const(0)
            raise _PathAbort  # min()/max() of empty sequence
        if all(isinstance(item, M.Const) for item in items):
            try:
                return M.Const(py_fn([item.v for item in items]))
            except Exception as exc:
                raise _PathAbort from exc
        return M.Sym((tag, tuple(M.key(item) for item in items)))
    return impl


def _bi_sorted(self, args, kwargs):
    items = self.iter_items(args[0])
    if items is None:
        raise _Unsupported("sorted() of unknown iterable")
    if kwargs:
        raise _Unsupported("sorted() with key/reverse")
    if all(isinstance(item, M.Const) for item in items):
        try:
            return M.SeqV(sorted(items, key=lambda c: c.v), "list")
        except TypeError as exc:
            raise _PathAbort from exc
    return M.SeqV(items, "list")


def _bi_list(self, args, kwargs):
    if not args:
        return M.SeqV([], "list")
    items = self.iter_items(args[0])
    if items is None:
        raise _Unsupported("list() of unknown iterable")
    return M.SeqV(items, "list")


def _bi_tuple(self, args, kwargs):
    if not args:
        return M.Const(())
    items = self.iter_items(args[0])
    if items is None:
        raise _Unsupported("tuple() of unknown iterable")
    if all(isinstance(item, M.Const) for item in items):
        return M.Const(tuple(item.v for item in items))
    return M.SeqV(items, "tuple")


def _bi_set(self, args, kwargs):
    items = _gather(self, args) if args else []
    if items is None:
        raise _Unsupported("set() of unknown iterable")
    return M.SetV({M.key(item) for item in items})


def _bi_frozenset(self, args, kwargs):
    return _bi_set(self, args, kwargs)


def _bi_dict(self, args, kwargs):
    dv = M.DictV()
    if args:
        if isinstance(args[0], M.DictV):
            dv.items.update(args[0].items)
        elif isinstance(args[0], M.Const) and isinstance(args[0].v,
                                                         dict):
            for k, v in args[0].v.items():
                const = M.Const(k)
                dv.items[M.key(const)] = (const, self.wrap_real(v))
        else:
            raise _Unsupported("dict() of abstract iterable")
    for key_name, value in kwargs.items():
        const = M.Const(key_name)
        dv.items[M.key(const)] = (const, value)
    return dv


def _bi_enumerate(self, args, kwargs):
    items = self.iter_items(args[0])
    if items is None:
        raise _Unsupported("enumerate() of unknown iterable")
    start = 0
    if len(args) > 1 and isinstance(args[1], M.Const):
        start = args[1].v
    return M.SeqV(
        [M.SeqV([M.Const(start + i), item], "tuple")
         for i, item in enumerate(items)],
        "list",
    )


def _bi_zip(self, args, kwargs):
    lists = [self.iter_items(a) for a in args]
    if any(lst is None for lst in lists):
        raise _Unsupported("zip() of unknown iterable")
    return M.SeqV(
        [M.SeqV(list(row), "tuple") for row in zip(*lists)], "list"
    )


def _bi_reversed(self, args, kwargs):
    items = self.iter_items(args[0])
    if items is None:
        raise _Unsupported("reversed() of unknown iterable")
    return M.SeqV(list(reversed(items)), "list")


def _bi_any(self, args, kwargs):
    items = self.iter_items(args[0])
    if items is None:
        raise _Unsupported("any() of unknown iterable")
    return M.Const(any(self.truth(item) for item in items))


def _bi_all(self, args, kwargs):
    items = self.iter_items(args[0])
    if items is None:
        raise _Unsupported("all() of unknown iterable")
    return M.Const(all(self.truth(item) for item in items))


def _model_isinstance(value, classes):
    if isinstance(value, M.Const):
        return isinstance(value.v, classes)
    if not isinstance(classes, tuple):
        classes = (classes,)
    if isinstance(value, M.StructV):
        return any(isinstance(c, type) and issubclass(value.cls, c)
                   for c in classes)
    if isinstance(value, M.ObjV) and value.cls is not None:
        return any(isinstance(c, type) and issubclass(value.cls, c)
                   for c in classes)
    if isinstance(value, M.SeqV):
        py = list if value.kind == "list" else tuple
        return any(c in (py, object) for c in classes)
    if isinstance(value, M.SetV):
        return any(c in (set, frozenset, object) for c in classes)
    if isinstance(value, M.DictV):
        return any(c in (dict, object) for c in classes)
    return None


def _bi_isinstance(self, args, kwargs):
    if not isinstance(args[1], M.Const):
        raise _Unsupported("isinstance() with abstract classinfo")
    verdict = _model_isinstance(args[0], args[1].v)
    if verdict is None:
        return M.Const(
            self._sym_prop("inst", M.key(args[0]), M.key(args[1]))
        )
    return M.Const(verdict)


def _bi_print(self, args, kwargs):
    return M.Const(None)


def _bi_getattr(self, args, kwargs):
    if not isinstance(args[1], M.Const):
        raise _Unsupported("getattr() with symbolic name")
    try:
        return self.get_attr(args[0], args[1].v)
    except (_Unsupported, _PathAbort):
        if len(args) > 2:
            return args[2]
        raise


def _bi_int_from_bytes(self, args, kwargs):
    data = args[0] if args else kwargs.get("bytes")
    if isinstance(data, M.Const):
        order = args[1].v if len(args) > 1 and \
            isinstance(args[1], M.Const) else "little"
        signed = kwargs.get("signed", M.Const(False))
        try:
            return M.Const(int.from_bytes(
                data.v, order,
                signed=bool(signed.v) if isinstance(signed, M.Const)
                else False,
            ))
        except Exception as exc:
            raise _PathAbort from exc
    if isinstance(data, _Packed) and len(data.vals) == 1 \
            and data.fmt in ("<Q", "<q", "<I", "<i"):
        return data.vals[0]
    return M.Sym(("from_bytes", M.key(data)))


def _bi_hasattr(self, args, kwargs):
    if not isinstance(args[1], M.Const):
        raise _Unsupported("hasattr() with symbolic name")
    try:
        self.get_attr(args[0], args[1].v)
        return M.Const(True)
    except (_Unsupported, _PathAbort):
        return M.Const(False)


_BUILTIN_IMPLS = {
    len: _bi_len,
    range: _bi_range,
    bool: _bi_bool,
    int: _numeric1(int, "int"),
    float: _numeric1(float, "float"),
    str: _numeric1(str, "str"),
    bytes: _numeric1(bytes, "bytes"),
    abs: _numeric1(abs, "abs"),
    ord: _numeric1(ord, "ord"),
    chr: _numeric1(chr, "chr"),
    hash: _numeric1(hash, "hash"),
    repr: _numeric1(repr, "repr"),
    round: _numeric1(round, "round"),
    divmod: _numeric1(divmod, "divmod"),
    min: _reduction(min, "min"),
    max: _reduction(max, "max"),
    sum: _reduction(sum, "sum"),
    sorted: _bi_sorted,
    list: _bi_list,
    tuple: _bi_tuple,
    set: _bi_set,
    frozenset: _bi_frozenset,
    dict: _bi_dict,
    enumerate: _bi_enumerate,
    zip: _bi_zip,
    reversed: _bi_reversed,
    any: _bi_any,
    all: _bi_all,
    isinstance: _bi_isinstance,
    print: _bi_print,
    getattr: _bi_getattr,
    hasattr: _bi_hasattr,
    int.from_bytes: _bi_int_from_bytes,
}


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def analyze_workload(workload, **budgets):
    """Statically analyze one workload instance.

    Returns an :class:`~repro.analysis.findings.AnalysisReport` whose
    extra ``coverage`` / ``uncertified`` / ``unsafe_spans`` attributes
    feed :func:`repro.analysis.certified_lines`.
    """
    return Interp(workload, **budgets).analyze()
