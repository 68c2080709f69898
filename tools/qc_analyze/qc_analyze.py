#!/usr/bin/env python3
"""qc-analyze — SPMD protocol static analyzer for the cluster runtime.

Walks every translation unit (discovered from a CMake
compile_commands.json, or an explicit path list) and checks the
protocol discipline of the `qc::cluster::Comm` / `ClusterSession` API —
the bug classes that stop being in-process hangs and become silent
multi-node deadlocks once the transport is pluggable:

  collective-divergence  a collective (barrier/broadcast/allgather/
                         alltoall/alltoallv/allreduce_*/sync) reached
                         only under a rank-dependent condition — a
                         condition reading rank()/rank_, or any value
                         data-dependent on them — deadlocks the ranks
                         that skip it. Early `return`/`continue` under a
                         rank-dependent condition divergences everything
                         after it, and one-level wrappers around a
                         collective (unambiguous names only) count too.

  p2p-unmatched          a send whose (tag) has no recv counterpart in
                         the same scope, or vice versa. Matching is
                         cross-branch (root sends / others recv inside
                         one function is matched); a pair deliberately
                         split across submit() jobs needs a reasoned
                         waiver.

  p2p-sendrecv           an adjacent send-then-recv to the same peer
                         with the same tag — correct under this eager
                         transport, a head-to-head deadlock under a
                         rendezvous one. Use Comm::sendrecv.

  p2p-tag-collision      application code using the reserved collective
                         tag range (kCollectiveTag and below); colliding
                         with collective-internal traffic corrupts both.

  fault-site             a Comm communication call in library code not
                         preceded by a named cluster::fault_point(...)
                         in its scope — an uninstrumented path the fault
                         campaign cannot exercise (CONTRIBUTING rule).

  atomic-order           a relaxed load of an atomic object whose
                         writers publish with memory_order_release (the
                         Tracer::current() bug class): the load must be
                         acquire to see the released stores' effects.

  span-discipline        an engine/sched/cluster function that emits
                         obs counters without opening any obs span (or
                         instant) — metrics that land outside every
                         traceable context.

  submit-closure         AST-accurate version of the lint.py rule:
                         closures handed to submit()/run() (or to the
                         dist backend's run_job(), which submits them)
                         execute on rank threads where a throw unwinds
                         through abort/recovery — bare .lock()/.unlock(),
                         malloc/free and naked new are rejected, in the
                         closure itself, in lambdas nested inside it,
                         and in same-file helper functions it calls.

Findings carry file:line, a rule id and a fix-it hint, and honor the
repo-wide waiver syntax on the finding line (or the line above):

    foo();  // lint:allow(<rule>) -- reason

Waivers require a reason and are reported as notes.

Frontends: the default `builtin` frontend (cppast.py) is a
dependency-free structural C++ parser — control-flow accurate for
these rules and runnable in any container. `--frontend libclang` is
gated on the clang Python bindings, which this toolchain does not
ship; requesting it without them is an environment error (exit 2),
never a silent skip.

Usage:
  qc_analyze.py -p build                      # TUs from compile db
  qc_analyze.py --paths src tests             # explicit roots
  qc_analyze.py -p build --json out.json      # machine-readable
Exit status: 0 clean, 1 findings, 2 usage/environment error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, field

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import cppast  # noqa: E402

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

RULES = {
    "collective-divergence": "collective reached under rank-dependent control flow",
    "p2p-unmatched": "send/recv without a tag-matched counterpart in scope",
    "p2p-sendrecv": "adjacent symmetric send/recv — use sendrecv",
    "p2p-tag-collision": "application p2p on the reserved collective tag range",
    "fault-site": "communication call without a named fault_point",
    "atomic-order": "relaxed load paired with release stores",
    "span-discipline": "obs counter emitted outside any span",
    "submit-closure": "unsafe resource acquisition in a rank closure",
}

COLLECTIVES = {
    "barrier", "broadcast", "allgather", "alltoall", "alltoallv",
    "allreduce_sum", "allreduce_max", "sync",
}
P2P = {"send", "recv", "send_bytes", "recv_bytes", "sendrecv"}
# Scopes *implementing* the transport primitives: exempt from the p2p
# and fault-site rules (they are the layer those rules reason about).
TRANSPORT_WRAPPERS = P2P
RANK_PARAMS = {"rank", "my_rank", "rank_id"}
# Tag argument index per primitive (Comm API: peer is always arg 0).
TAG_ARG = {"send": 2, "recv": 2, "send_bytes": 2, "recv_bytes": 2, "sendrecv": 3}

ALLOW = re.compile(r"lint:allow\(([a-z0-9-]+)\)\s*(?:--|—)?\s*(.*)")
TREAT_AS = re.compile(r"qc-analyze:\s*treat-as\s+(\S+)")
IDENT = re.compile(r"[A-Za-z_]\w*")

DEFAULT_DIRS = ["src", "tools", "tests", "bench", "examples"]
FIXTURE_DIR = os.path.join("tools", "qc_analyze", "fixtures")


@dataclass
class Finding:
    rule: str
    file: str
    line: int
    message: str
    hint: str
    waived: bool = False
    reason: str = ""


@dataclass
class Unit:
    path: str  # repo-relative, '/' separators
    text: str
    raw_lines: list[str]
    scopes: list[cppast.Scope] = field(default_factory=list)
    scope_by_body: dict[int, cppast.Scope] = field(default_factory=dict)
    effective: str = ""  # path used for rule-scoping decisions

    @property
    def is_lib(self) -> bool:
        return self.effective.startswith(("src/", "tools/"))


def load_unit(abspath: str) -> Unit:
    with open(abspath, encoding="utf-8") as f:
        text = f.read()
    rel = os.path.relpath(abspath, REPO).replace(os.sep, "/")
    unit = Unit(path=rel, text=text, raw_lines=text.splitlines())
    unit.effective = rel
    for line in unit.raw_lines[:5]:
        m = TREAT_AS.search(line)
        if m:
            unit.effective = m.group(1)
            break
    unit.scopes = cppast.parse_file(rel, text)
    for sc in unit.scopes:
        unit.scope_by_body[id(sc.body)] = sc
    return unit


# --- taint: values data-dependent on the rank -------------------------

def _param_names(params_text: str) -> list[str]:
    names = []
    for piece in params_text.split(","):
        ids = IDENT.findall(piece)
        if ids:
            names.append(ids[-1])
    return names


def _has_rank_call(elements: list) -> bool:
    return any(c.name == "rank" and not c.args
               for c in cppast.iter_calls(elements, skip_lambda_bodies=True))


def _expr_tainted(elements: list, tainted: set[str]) -> bool:
    for t in cppast.iter_tokens(elements, skip_lambda_bodies=True):
        if t.kind == "id" and t.text in tainted:
            return True
    return _has_rank_call(elements)


def compute_taint(scope: cppast.Scope, taint_of: dict[int, set[str]]) -> set[str]:
    """Identifiers in `scope` holding rank-dependent values: the rank_
    member convention, rank-named parameters, captured tainted locals of
    enclosing scopes, and anything assigned from a tainted expression."""
    tainted = {"rank_"}
    for name in _param_names(scope.params_text):
        if name in RANK_PARAMS:
            tainted.add(name)
    p = scope.parent
    while p is not None:
        tainted |= taint_of.get(id(p), set())
        p = p.parent
    for _ in range(4):  # fixpoint over chained assignments
        grew = False
        for site in scope.sites:
            if site.stmt.kind != "expr":
                continue
            for name, rhs in _assignments(site.stmt.elements):
                if name not in tainted and _expr_tainted(rhs, tainted):
                    tainted.add(name)
                    grew = True
        if not grew:
            break
    return tainted


def _assignments(elements: list):
    """Yields (lhs-name, rhs-elements) for `x = rhs`, `T x(rhs)`, `T x{rhs}`."""
    for j, e in enumerate(elements):
        if isinstance(e, cppast.Tok) and e.text == "=" and j > 0:
            lhs = elements[j - 1]
            if isinstance(lhs, cppast.Tok) and lhs.kind == "id":
                yield lhs.text, elements[j + 1:]
            return
    for j, e in enumerate(elements):
        if (isinstance(e, cppast.Tok) and e.kind == "id" and 0 < j < len(elements) - 1):
            nxt = elements[j + 1]
            prev = elements[j - 1]
            if (isinstance(nxt, cppast.Grp) and nxt.open in "({"
                    and (isinstance(prev, cppast.Tok)
                         and (prev.kind == "id" or prev.text in (">", "&", "*")))):
                yield e.text, nxt.items
                return


# --- the analyzer -----------------------------------------------------

class Analyzer:
    def __init__(self, units: list[Unit]):
        self.units = units
        self.findings: list[Finding] = []
        self.taint_of: dict[int, set[str]] = {}
        self.fn_scopes: dict[str, list[tuple[Unit, cppast.Scope]]] = {}
        for u in units:
            for sc in u.scopes:
                if sc.kind == "function":
                    self.fn_scopes.setdefault(sc.name, []).append((u, sc))
                self.taint_of[id(sc)] = compute_taint(sc, self.taint_of)
        self.collective_wrappers = self._find_wrappers()

    def _find_wrappers(self) -> set[str]:
        """One-level interprocedural step: function names defined exactly
        once in the analyzed universe whose body unconditionally performs
        a collective. Ambiguous names (defined more than once, e.g. the
        serial and distributed `sample`) are excluded — a wrapper set
        with false members would turn into false deadlock reports."""
        wrappers: set[str] = set()
        for name, defs in self.fn_scopes.items():
            if len(defs) != 1 or name in COLLECTIVES or name in TRANSPORT_WRAPPERS:
                continue
            _, sc = defs[0]
            for site in sc.sites:
                if site.stmt.kind not in ("expr", "jump"):
                    continue
                if any(ci.kind in ("if", "switch") for ci in site.ctx):
                    continue
                if any(c.name in COLLECTIVES
                       for c in cppast.iter_calls(site.stmt.elements)):
                    wrappers.add(name)
                    break
        return wrappers

    def emit(self, rule: str, unit: Unit, line: int, message: str, hint: str):
        self.findings.append(Finding(rule, unit.path, line, message, hint))

    def run(self, rules: set[str]) -> list[Finding]:
        order = [
            ("collective-divergence", self.check_collective_divergence),
            ("p2p-unmatched", self.check_p2p_matching),
            ("p2p-sendrecv", self.check_p2p_sendrecv),
            ("p2p-tag-collision", self.check_tag_collision),
            ("fault-site", self.check_fault_site),
            ("atomic-order", self.check_atomic_order),
            ("span-discipline", self.check_span_discipline),
            ("submit-closure", self.check_submit_closures),
        ]
        for rule, fn in order:
            if rule in rules:
                fn()
        self.findings.sort(key=lambda f: (f.file, f.line, f.rule))
        return self.findings

    # -- helpers -------------------------------------------------------

    def _site_calls(self, scope: cppast.Scope):
        for site in scope.sites:
            for call in cppast.iter_calls(site.stmt.elements):
                yield site, call

    def _is_p2p(self, call: cppast.Call, unit: Unit) -> bool:
        if call.name not in P2P:
            return False
        # Free functions named send/recv unrelated to Comm exist in the
        # wild; require an object receiver except inside the cluster
        # runtime itself, where members call siblings unqualified.
        return bool(call.recv) or unit.effective.startswith("src/cluster/")

    @staticmethod
    def _tag_of(call: cppast.Call) -> str:
        idx = TAG_ARG[call.name]
        if len(call.args) > idx and call.args[idx]:
            return re.sub(r"\s+", "", cppast.text_of(call.args[idx]))
        return "0"

    @staticmethod
    def _peer_of(call: cppast.Call) -> str:
        if call.args and call.args[0]:
            return re.sub(r"\s+", "", cppast.text_of(call.args[0]))
        return ""

    # -- rule: collective-divergence -----------------------------------

    def check_collective_divergence(self):
        for unit in self.units:
            for scope in unit.scopes:
                tainted = self.taint_of[id(scope)]
                for site, call in self._site_calls(scope):
                    if not (call.name in COLLECTIVES
                            or call.name in self.collective_wrappers):
                        continue
                    if call.name in COLLECTIVES and not call.recv \
                            and not unit.effective.startswith("src/"):
                        continue  # free fn named e.g. sync() in a driver
                    for ci in site.ctx:
                        if ci.cond is None:
                            continue
                        if not _expr_tainted([ci.cond], tainted):
                            continue
                        if ci.kind == "after-exit":
                            what = (f"follows a rank-dependent early "
                                    f"{ci.jump_word} (line {ci.line})")
                        else:
                            what = (f"is reached only under a rank-dependent "
                                    f"{ci.kind} condition (line {ci.line})")
                        self.emit(
                            "collective-divergence", unit, call.line,
                            f"collective '{call.name}' {what}; ranks that "
                            f"skip it deadlock the ones that arrive",
                            "make the condition rank-uniform or hoist the "
                            "collective so every rank executes it")
                        break

    # -- rules: p2p matching / sendrecv / tag collision ----------------

    def _p2p_records(self, unit: Unit, scope: cppast.Scope):
        for site, call in self._site_calls(scope):
            if self._is_p2p(call, unit):
                yield site, call

    def check_p2p_matching(self):
        for unit in self.units:
            for scope in unit.scopes:
                if scope.name in TRANSPORT_WRAPPERS:
                    continue
                sends, recvs = [], []
                for _, call in self._p2p_records(unit, scope):
                    if call.name == "sendrecv":
                        continue  # self-matched by construction
                    (sends if call.name.startswith("send") else recvs).append(call)
                if not sends and not recvs:
                    continue
                send_tags = {self._tag_of(c) for c in sends}
                recv_tags = {self._tag_of(c) for c in recvs}
                for c in sends:
                    if self._tag_of(c) not in recv_tags:
                        self.emit(
                            "p2p-unmatched", unit, c.line,
                            f"'{c.name}' with tag {self._tag_of(c)} has no "
                            f"matching recv in this scope",
                            "pair it with a recv on the receiving rank's path "
                            "of the same job (tags must agree), use sendrecv "
                            "for symmetric exchanges, or waive with the "
                            "cross-job protocol spelled out")
                for c in recvs:
                    if self._tag_of(c) not in send_tags:
                        self.emit(
                            "p2p-unmatched", unit, c.line,
                            f"'{c.name}' with tag {self._tag_of(c)} has no "
                            f"matching send in this scope",
                            "pair it with a send on the sending rank's path "
                            "of the same job (tags must agree), use sendrecv "
                            "for symmetric exchanges, or waive with the "
                            "cross-job protocol spelled out")

    def check_p2p_sendrecv(self):
        for unit in self.units:
            for scope in unit.scopes:
                if scope.name in TRANSPORT_WRAPPERS:
                    continue
                self._sendrecv_walk(unit, scope, scope.stmts)

    def _sendrecv_walk(self, unit: Unit, scope: cppast.Scope, stmts: list):
        for a, b in zip(stmts, stmts[1:]):
            sa = self._sole_p2p(unit, a)
            sb = self._sole_p2p(unit, b)
            if (sa is not None and sb is not None
                    and sa.name.startswith("send") and sb.name.startswith("recv")
                    and self._peer_of(sa) == self._peer_of(sb)
                    and self._tag_of(sa) == self._tag_of(sb)):
                self.emit(
                    "p2p-sendrecv", unit, sa.line,
                    f"send immediately followed by recv to the same peer "
                    f"({self._peer_of(sa)}, tag {self._tag_of(sa)}) — a "
                    f"head-to-head deadlock under a rendezvous transport",
                    "use Comm::sendrecv, which stays correct regardless of "
                    "the transport's buffering")
        for st in stmts:
            for kids in (st.children, st.else_children):
                if kids:
                    self._sendrecv_walk(unit, scope, kids)

    def _sole_p2p(self, unit: Unit, st: cppast.Stmt):
        if st.kind != "expr":
            return None
        calls = [c for c in cppast.iter_calls(st.elements) if self._is_p2p(c, unit)]
        return calls[0] if len(calls) == 1 else None

    def check_tag_collision(self):
        for unit in self.units:
            if unit.effective.startswith("src/cluster/"):
                continue  # the runtime's own tags ARE the reserved range
            for scope in unit.scopes:
                for _, call in self._p2p_records(unit, scope):
                    tag = self._tag_of(call)
                    if "kCollectiveTag" in tag or tag in ("-7771", "-7772"):
                        self.emit(
                            "p2p-tag-collision", unit, call.line,
                            f"'{call.name}' uses reserved tag {tag} — "
                            f"collides with collective-internal traffic",
                            "tags at or below kCollectiveTag (-7771) belong "
                            "to the Comm collectives; use a non-negative "
                            "application tag")

    # -- rule: fault-site ----------------------------------------------

    def check_fault_site(self):
        for unit in self.units:
            if not unit.effective.startswith("src/"):
                continue  # CONTRIBUTING rule covers library code
            for scope in unit.scopes:
                if scope.name in TRANSPORT_WRAPPERS:
                    continue
                fp_lines = [c.line for _, c in self._site_calls(scope)
                            if c.name == "fault_point"]
                for _, call in self._p2p_records(unit, scope):
                    if any(line <= call.line for line in fp_lines):
                        continue
                    self.emit(
                        "fault-site", unit, call.line,
                        f"communication call '{call.name}' has no preceding "
                        f"fault_point in this scope — the fault campaign "
                        f"cannot exercise this path",
                        'add cluster::fault_point("<layer>.<operation>", '
                        'rank) before the first communication call, document '
                        'it in the src/cluster/fault.hpp site table, and '
                        'cover it in tools/fault_campaign (CONTRIBUTING)')

    # -- rule: atomic-order --------------------------------------------

    @staticmethod
    def _obj_key(call: cppast.Call) -> str:
        ids = IDENT.findall(call.recv)
        return ids[-1] if ids else ""

    @staticmethod
    def _order_in(args: list, marker: str) -> bool:
        for arg in args:
            toks = [t.text for t in cppast.iter_tokens(arg)]
            if f"memory_order_{marker}" in toks:
                return True
            if "memory_order" in toks and marker in toks:
                return True
        return False

    def check_atomic_order(self):
        releases: dict[str, tuple[str, int]] = {}
        loads: list[tuple[str, Unit, int]] = []
        for unit in self.units:
            for scope in unit.scopes:
                for _, call in self._site_calls(scope):
                    if not call.recv or call.sep not in (".", "->"):
                        continue
                    if call.name in ("store", "exchange") \
                            and self._order_in(call.args, "release"):
                        releases.setdefault(self._obj_key(call),
                                            (unit.path, call.line))
                    elif call.name == "load" \
                            and self._order_in(call.args, "relaxed"):
                        loads.append((self._obj_key(call), unit, call.line))
        for obj, unit, line in loads:
            if obj and obj in releases:
                rfile, rline = releases[obj]
                self.emit(
                    "atomic-order", unit, line,
                    f"relaxed load of '{obj}', but its writers publish with "
                    f"memory_order_release ({rfile}:{rline}) — the load is "
                    f"not guaranteed to see the released object's contents",
                    "load with std::memory_order_acquire to pair with the "
                    "release store")

    # -- rule: span-discipline -----------------------------------------

    _SPAN_DIRS = ("src/engine/", "src/sched/", "src/cluster/")

    def _span_evidence(self, scope: cppast.Scope) -> bool:
        for t in cppast.iter_tokens(scope.body.items, skip_lambda_bodies=True):
            if t.kind == "id" and t.text == "Span":
                return True
        return any(c.name in ("instant", "emit_interval")
                   for _, c in self._site_calls(scope))

    def check_span_discipline(self):
        for unit in self.units:
            if not unit.effective.startswith(self._SPAN_DIRS):
                continue
            for scope in unit.scopes:
                counters = [c for _, c in self._site_calls(scope)
                            if c.name == "counter_add"]
                if not counters:
                    continue
                covered = False
                sc = scope
                while sc is not None:
                    if self._span_evidence(sc):
                        covered = True
                        break
                    sc = sc.parent
                if covered:
                    continue
                for c in counters:
                    self.emit(
                        "span-discipline", unit, c.line,
                        f"counter emitted in '{scope.name}' outside any obs "
                        f"span — the metric lands in no traceable context",
                        "open an obs::Span at the entry point, or record an "
                        "obs::instant(...) marking the event the counter "
                        "belongs to")

    # -- rule: submit-closure ------------------------------------------

    _UNSAFE_HINT = ("submit/run closures execute on rank threads where a "
                    "throw unwinds through abort/recovery — use "
                    "std::lock_guard/unique_lock and containers so "
                    "everything acquired releases itself")

    def check_submit_closures(self):
        for unit in self.units:
            for scope in unit.scopes:
                for _, call in self._site_calls(scope):
                    if call.name not in ("submit", "run", "run_job"):
                        continue
                    for arg in call.args:
                        for lam in self._lambdas_in(arg, unit):
                            self._check_closure(unit, lam, set())

    def _lambdas_in(self, elements: list, unit: Unit):
        for e in elements:
            if isinstance(e, cppast.Grp):
                if e.is_lambda_body and id(e) in unit.scope_by_body:
                    yield unit.scope_by_body[id(e)]
                else:
                    yield from self._lambdas_in(e.items, unit)

    def _check_closure(self, unit: Unit, scope: cppast.Scope,
                       visited: set[int], via: str = ""):
        if id(scope) in visited:
            return
        visited.add(id(scope))
        where = f" (via helper '{via}')" if via else ""
        for _, call in self._site_calls(scope):
            if call.name in ("lock", "unlock") and call.sep in (".", "->"):
                self.emit("submit-closure", unit, call.line,
                          f"bare .{call.name}() in a rank closure{where}",
                          self._UNSAFE_HINT)
            elif call.name in ("malloc", "free") and not call.recv:
                self.emit("submit-closure", unit, call.line,
                          f"{call.name}() in a rank closure{where} — "
                          f"use containers", self._UNSAFE_HINT)
            elif not via and not call.recv and call.name in self.fn_scopes:
                defs = self.fn_scopes[call.name]
                same_file = [sc for u2, sc in defs if u2 is unit]
                for helper in same_file:
                    self._check_closure(unit, helper, visited, via=call.name)
        toks = list(cppast.iter_tokens(scope.body.items,
                                       skip_lambda_bodies=False))
        for j, t in enumerate(toks):
            if t.kind == "id" and t.text == "new" and j + 1 < len(toks) \
                    and toks[j + 1].kind == "id":
                self.emit("submit-closure", unit, t.line,
                          f"naked new in a rank closure{where} — leaks when "
                          f"the job throws", self._UNSAFE_HINT)
        # Lambdas nested in the closure run on the same rank thread.
        for child_unit_scope in unit.scopes:
            if child_unit_scope.parent is scope and not via:
                self._check_closure(unit, child_unit_scope, visited)


# --- waivers ----------------------------------------------------------

def apply_waivers(units: dict[str, Unit], findings: list[Finding]) -> list[Finding]:
    out = []
    for f in findings:
        unit = units[f.file]
        waiver = None
        for line in (f.line, f.line - 1):
            if 1 <= line <= len(unit.raw_lines):
                m = ALLOW.search(unit.raw_lines[line - 1])
                if m and m.group(1) == f.rule:
                    waiver = m.group(2).strip()
                    break
        if waiver is None:
            out.append(f)
        elif not waiver:
            out.append(Finding(f.rule, f.file, f.line,
                               "waiver without a reason", f.hint))
        else:
            out.append(Finding(f.rule, f.file, f.line, f.message, f.hint,
                               waived=True, reason=waiver))
    return out


# --- file discovery ---------------------------------------------------

def _want(path: str) -> bool:
    return path.endswith((".cpp", ".hpp"))


def _is_fixture(path: str) -> bool:
    return FIXTURE_DIR in path


def files_from_compile_db(db_path: str) -> list[str]:
    with open(db_path, encoding="utf-8") as f:
        db = json.load(f)
    files = set()
    for entry in db:
        p = entry["file"]
        if not os.path.isabs(p):
            p = os.path.normpath(os.path.join(entry.get("directory", ""), p))
        p = os.path.realpath(p)
        if p.startswith(os.path.realpath(REPO) + os.sep) and _want(p) \
                and not _is_fixture(p):
            files.add(p)
    # Headers are not TUs; the protocol lives in cluster.hpp and friends,
    # so sweep them in from the same roots the db's TUs cover.
    for d in ("src",):
        root = os.path.join(REPO, d)
        for dirpath, _, names in os.walk(root):
            for name in sorted(names):
                if name.endswith(".hpp"):
                    files.add(os.path.realpath(os.path.join(dirpath, name)))
    return sorted(files)


def files_from_paths(paths: list[str]) -> list[str]:
    files = []
    for p in paths:
        ap = p if os.path.isabs(p) else os.path.join(REPO, p)
        if os.path.isdir(ap):
            for dirpath, _, names in os.walk(ap):
                for name in sorted(names):
                    full = os.path.join(dirpath, name)
                    if _want(full) and not _is_fixture(full):
                        files.append(full)
        elif os.path.isfile(ap):
            files.append(ap)  # explicit file: fixtures allowed
        else:
            raise FileNotFoundError(p)
    return sorted(set(files))


# --- driver -----------------------------------------------------------

def analyze(files: list[str], rules: set[str]) -> tuple[list[Finding], int]:
    units = [load_unit(f) for f in files]
    analyzer = Analyzer(units)
    findings = analyzer.run(rules)
    findings = apply_waivers({u.path: u for u in units}, findings)
    return findings, len(units)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("-p", "--build", metavar="DIR",
                    help="build dir containing compile_commands.json")
    ap.add_argument("--compile-db", metavar="FILE",
                    help="explicit compile_commands.json path")
    ap.add_argument("--paths", nargs="+", metavar="PATH",
                    help="files/dirs to analyze (overrides the compile db)")
    ap.add_argument("--rules", nargs="+", choices=sorted(RULES),
                    metavar="RULE", help="subset of rules to run "
                    f"(default: all of {', '.join(sorted(RULES))})")
    ap.add_argument("--json", metavar="FILE",
                    help="also write findings as JSON")
    ap.add_argument("--frontend", choices=["auto", "builtin", "libclang"],
                    default="auto")
    args = ap.parse_args(argv)

    if args.frontend == "libclang":
        try:
            import clang.cindex  # noqa: F401
        except ImportError:
            print("qc-analyze: error: --frontend libclang requires the clang "
                  "Python bindings (python3-clang + libclang), which are not "
                  "installed; the builtin structural frontend is the "
                  "supported default", file=sys.stderr)
            return 2
        print("qc-analyze: error: the libclang frontend is gated off until "
              "the bindings are part of the toolchain image; run with "
              "--frontend builtin", file=sys.stderr)
        return 2

    try:
        if args.paths:
            files = files_from_paths(args.paths)
        else:
            db = args.compile_db
            if db is None and args.build:
                db = os.path.join(args.build, "compile_commands.json")
            if db is not None:
                if not os.path.isfile(db):
                    print(f"qc-analyze: error: {db} not found — configure "
                          f"with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON",
                          file=sys.stderr)
                    return 2
                files = files_from_compile_db(db)
            else:
                files = files_from_paths(
                    [d for d in DEFAULT_DIRS
                     if os.path.isdir(os.path.join(REPO, d))])
    except FileNotFoundError as e:
        print(f"qc-analyze: error: no such path: {e}", file=sys.stderr)
        return 2

    rules = set(args.rules) if args.rules else set(RULES)
    findings, n_units = analyze(files, rules)

    errors = [f for f in findings if not f.waived]
    waived = [f for f in findings if f.waived]
    for f in waived:
        print(f"note: {f.file}:{f.line}: waived [{f.rule}]: {f.reason}")
    for f in errors:
        print(f"error: {f.file}:{f.line}: [{f.rule}] {f.message}")
        print(f"    hint: {f.hint}")

    if args.json:
        payload = {
            "findings": [vars(f) for f in findings],
            "summary": {"errors": len(errors), "waived": len(waived),
                        "files": n_units,
                        "rules": sorted(rules)},
        }
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")

    if errors:
        print(f"\nqc-analyze: {len(errors)} finding(s) across {n_units} files")
        return 1
    print(f"qc-analyze: clean ({n_units} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
