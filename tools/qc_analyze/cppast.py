"""Structural C++ frontend for qc-analyze.

A self-contained lexer + balanced-token-tree parser that recovers the
structure the protocol rules need — function/lambda scopes, an
if/loop/switch statement tree with condition token ranges, and call
expressions with split argument lists — without a compiler. It is not a
full C++ parser: it never resolves types or overloads, and it reads
declarations heuristically. That is enough to be *control-flow
accurate* (multi-line lambdas, nested branches, early returns), which
is the whole gap between these rules and a regex linter. It needs
nothing beyond the Python standard library, so the gate runs the same
everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

# --- lexer ------------------------------------------------------------

# Multi-char operators the rules care about keeping atomic. '<' and '>'
# deliberately stay single-char so template-argument scanning can track
# them; shift operators then lex as two tokens, which no rule minds.
_PUNCT2 = (
    "::", "->", "...", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=",
    "*=", "/=", "%=", "&=", "|=", "^=", "++", "--",
)

_ID_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_ID_CONT = _ID_START | set("0123456789")


@dataclass
class Tok:
    kind: str  # 'id' | 'num' | 'str' | 'chr' | 'punct'
    text: str
    line: int
    directive: bool = False  # part of a preprocessor line


def lex(text: str) -> list[Tok]:
    """Tokenizes C++ source: comments vanish, string/char literals
    collapse to one token, line numbers survive. Preprocessor lines are
    lexed on their own and their tokens flagged `directive`: the token
    rules read macro bodies, the structural parse skips them."""
    toks: list[Tok] = []
    i, n, line = 0, len(text), 1
    at_line_start = True
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
            at_line_start = True
            continue
        if ch in " \t\r\f\v":
            i += 1
            continue
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            j = text.find("\n", i)
            i = n if j < 0 else j
            continue
        if ch == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            seg_end = n if j < 0 else j + 2
            line += text.count("\n", i, seg_end)
            i = seg_end
            continue
        if ch == "#" and at_line_start:
            # Preprocessor directive: runs to the end of its (continued)
            # line, so nothing in it can swallow the code after it.
            start, start_line = i + 1, line
            while i < n:
                j = text.find("\n", i)
                if j < 0:
                    i = n
                    break
                if text[j - 1] == "\\" or (text[j - 1] == "\r" and text[j - 2] == "\\"):
                    line += 1
                    i = j + 1
                    continue
                i = j  # leave the newline for the main loop
                break
            for t in lex(text[start:i]):
                toks.append(Tok(t.kind, t.text, t.line + start_line - 1, directive=True))
            continue
        at_line_start = False
        if ch == '"' or (ch == "R" and nxt == '"'):
            if ch == "R":  # raw string R"delim( ... )delim"
                k = text.find("(", i + 2)
                delim = text[i + 2 : k] if k > 0 else ""
                close = ")" + delim + '"'
                j = text.find(close, k + 1)
                j = n if j < 0 else j + len(close)
            else:
                j = i + 1
                while j < n and text[j] != '"':
                    j += 2 if text[j] == "\\" else 1
                j = min(j + 1, n)
            line += text.count("\n", i, j)
            toks.append(Tok("str", text[i:j], line))
            i = j
            continue
        if ch == "'":
            # Char literal. Digit separators (1'000) are consumed by the
            # number scanner before we ever get here.
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            toks.append(Tok("chr", text[i:j], line))
            i = j
            continue
        if ch in _ID_START:
            j = i + 1
            while j < n and text[j] in _ID_CONT:
                j += 1
            toks.append(Tok("id", text[i:j], line))
            i = j
            continue
        if ch.isdigit() or (ch == "." and nxt.isdigit()):
            j = i + 1
            while j < n and (text[j] in _ID_CONT or text[j] in ".'" or
                             (text[j] in "+-" and text[j - 1] in "eEpP")):
                j += 1
            toks.append(Tok("num", text[i:j], line))
            i = j
            continue
        two = text[i : i + 2]
        three = text[i : i + 3]
        if three in _PUNCT2:
            toks.append(Tok("punct", three, line))
            i += 3
        elif two in _PUNCT2:
            toks.append(Tok("punct", two, line))
            i += 2
        else:
            toks.append(Tok("punct", ch, line))
            i += 1
    return toks


# --- token tree -------------------------------------------------------

_OPEN = {"(": ")", "[": "]", "{": "}"}
_CLOSE = {")", "]", "}"}


@dataclass
class Grp:
    open: str  # '(', '[', '{', or '' for the file-level virtual group
    items: list  # Tok | Grp
    line: int
    close_line: int = 0
    is_lambda_body: bool = False


Element = Tok | Grp


def tree(toks: list[Tok]) -> Grp:
    """Groups tokens into a nested balanced-bracket tree (best effort on
    unbalanced input: stray closers are dropped, EOF closes the rest)."""
    root = Grp("", [], 1)
    stack = [root]
    for t in toks:
        if t.text in _OPEN and t.kind == "punct":
            g = Grp(t.text, [], t.line)
            stack[-1].items.append(g)
            stack.append(g)
        elif t.text in _CLOSE and t.kind == "punct":
            if len(stack) > 1:
                stack[-1].close_line = t.line
                stack.pop()
        else:
            stack[-1].items.append(t)
    while len(stack) > 1:
        stack[-1].close_line = toks[-1].line if toks else 1
        stack.pop()
    return root


def text_of(elements: list[Element] | Grp) -> str:
    """Canonical text of a token run (single spaces, groups re-bracketed);
    used to compare peer/tag expressions structurally."""
    if isinstance(elements, Grp):
        inner = " ".join(text_of([e]) for e in elements.items)
        return f"{elements.open}{inner}{_OPEN.get(elements.open, '')}" if elements.open else inner
    parts = []
    for e in elements:
        if isinstance(e, Grp):
            closer = _OPEN.get(e.open, "")
            parts.append(e.open + " ".join(text_of([x]) for x in e.items) + closer)
        else:
            parts.append(e.text)
    return " ".join(p for p in parts if p)


def iter_tokens(elements: list[Element], skip_lambda_bodies: bool = False) -> Iterator[Tok]:
    for e in elements:
        if isinstance(e, Grp):
            if skip_lambda_bodies and e.is_lambda_body:
                continue
            yield from iter_tokens(e.items, skip_lambda_bodies)
        else:
            yield e


# --- statements -------------------------------------------------------

_JUMPS = {"return", "throw", "break", "continue", "goto"}


@dataclass
class Stmt:
    kind: str  # 'if' | 'loop' | 'switch' | 'block' | 'try' | 'expr' | 'jump' | 'label'
    line: int
    cond: Optional[Grp] = None  # controlling paren group (if/loop/switch)
    children: list["Stmt"] = field(default_factory=list)
    else_children: list["Stmt"] = field(default_factory=list)
    elements: list[Element] = field(default_factory=list)  # expr/jump payload
    jump_word: str = ""


def _elem_line(e: Element) -> int:
    return e.line


def parse_stmts(items: list[Element]) -> list[Stmt]:
    out: list[Stmt] = []
    i = 0
    while i < len(items):
        stmt, i = _parse_one(items, i)
        if stmt is not None:
            out.append(stmt)
    return out


def _parse_one(items: list[Element], i: int) -> tuple[Optional[Stmt], int]:
    if i >= len(items):
        return None, i
    el = items[i]
    line = _elem_line(el)
    if isinstance(el, Tok) and el.kind == "id":
        w = el.text
        if w == "if":
            j = i + 1
            if j < len(items) and isinstance(items[j], Tok) and items[j].text == "constexpr":
                j += 1
            cond = items[j] if j < len(items) and isinstance(items[j], Grp) else None
            body, j2 = _parse_one(items, j + 1)
            st = Stmt("if", line, cond=cond, children=[body] if body else [])
            if j2 < len(items) and isinstance(items[j2], Tok) and items[j2].text == "else":
                els, j3 = _parse_one(items, j2 + 1)
                st.else_children = [els] if els else []
                return st, j3
            return st, j2
        if w in ("for", "while"):
            j = i + 1
            cond = items[j] if j < len(items) and isinstance(items[j], Grp) else None
            body, j2 = _parse_one(items, j + 1)
            return Stmt("loop", line, cond=cond, children=[body] if body else []), j2
        if w == "do":
            body, j = _parse_one(items, i + 1)
            # consume 'while (...)' ';'
            cond = None
            while j < len(items):
                e = items[j]
                if isinstance(e, Grp) and e.open == "(":
                    cond = e
                j += 1
                if isinstance(e, Tok) and e.text == ";":
                    break
            return Stmt("loop", line, cond=cond, children=[body] if body else []), j
        if w == "switch":
            j = i + 1
            cond = items[j] if j < len(items) and isinstance(items[j], Grp) else None
            j += 1
            kids: list[Stmt] = []
            if j < len(items) and isinstance(items[j], Grp) and items[j].open == "{":
                kids = parse_stmts(items[j].items)
                j += 1
            return Stmt("switch", line, cond=cond, children=kids), j
        if w == "try":
            j = i + 1
            kids: list[Stmt] = []
            if j < len(items) and isinstance(items[j], Grp) and items[j].open == "{":
                kids = parse_stmts(items[j].items)
                j += 1
            while (j + 1 < len(items) and isinstance(items[j], Tok) and items[j].text == "catch"
                   and isinstance(items[j + 1], Grp)):
                j += 2
                if j < len(items) and isinstance(items[j], Grp) and items[j].open == "{":
                    kids += parse_stmts(items[j].items)
                    j += 1
            return Stmt("try", line, children=kids), j
        if w in _JUMPS:
            elems, j = _consume_until_semicolon(items, i)
            return Stmt("jump", line, elements=elems, jump_word=w), j
        if w in ("case", "default"):
            j = i + 1
            while j < len(items) and not (isinstance(items[j], Tok) and items[j].text == ":"):
                j += 1
            return Stmt("label", line), j + 1
        if w == "else":  # stray (shouldn't happen) — skip
            return None, i + 1
    if isinstance(el, Grp) and el.open == "{":
        return Stmt("block", line, children=parse_stmts(el.items)), i + 1
    if isinstance(el, Tok) and el.text == ";":
        return None, i + 1
    elems, j = _consume_until_semicolon(items, i)
    return Stmt("expr", line, elements=elems), j


def _consume_until_semicolon(items: list[Element], i: int) -> tuple[list[Element], int]:
    elems: list[Element] = []
    while i < len(items):
        e = items[i]
        i += 1
        if isinstance(e, Tok) and e.text == ";":
            break
        elems.append(e)
    return elems, i


# --- scopes (functions and lambdas) -----------------------------------

_CTRL = {"if", "for", "while", "switch", "do", "else", "catch", "return", "throw"}
_LAMBDA_SPECIFIERS = {"mutable", "noexcept", "constexpr", "->", "const"}


@dataclass
class Scope:
    kind: str  # 'function' | 'lambda'
    name: str
    qual: str
    file: str
    line: int
    body: Grp
    params_text: str = ""
    parent: Optional["Scope"] = None
    stmts: list[Stmt] = field(default_factory=list)
    sites: list["Site"] = field(default_factory=list)


@dataclass
class CondInfo:
    kind: str  # 'if' | 'loop' | 'switch' | 'after-exit'
    line: int
    cond: Optional[Grp]
    jump_word: str = ""  # for 'after-exit': the jump that created it


@dataclass
class Site:
    stmt: Stmt
    ctx: tuple[CondInfo, ...]


def parse_file(path: str, toks: list[Tok]) -> list[Scope]:
    """Returns every function and lambda scope in the file (`toks` from
    lex()), statement trees parsed and control contexts attached."""
    top = tree([t for t in toks if not t.directive])
    scopes: list[Scope] = []
    _walk_outer(top.items, [], path, scopes)
    # Lambdas are discovered per function body, appended to `scopes`
    # inside _finish_scope via the worklist below.
    result: list[Scope] = []
    work = list(scopes)
    while work:
        sc = work.pop(0)
        result.append(sc)
        work.extend(_finish_scope(sc))
    return result


def _walk_outer(items: list[Element], ctx: list[str], path: str, scopes: list[Scope]) -> None:
    head_start = 0
    i = 0
    while i < len(items):
        el = items[i]
        if isinstance(el, Tok) and el.text == ";":
            head_start = i + 1
        elif isinstance(el, Grp) and el.open == "{":
            head = items[head_start:i]
            kw, name = _head_keyword(head)
            if kw == "namespace":
                _walk_outer(el.items, ctx + ([name] if name else []), path, scopes)
            elif kw == "class":
                _walk_outer(el.items, ctx + ([name] if name else []), path, scopes)
            elif kw == "enum":
                pass
            else:
                fn = _match_function(head)
                if fn is not None:
                    fname, params, fline = fn
                    scopes.append(Scope(
                        kind="function", name=fname,
                        qual="::".join(ctx + [fname]) if ctx else fname,
                        file=path, line=fline, body=el,
                        params_text=text_of(params.items)))
                # else: braced initializer / array data — ignore.
            head_start = i + 1
        i += 1


def _head_keyword(head: list[Element]) -> tuple[str, str]:
    """Classifies a pre-brace head as namespace/class/enum, returning the
    declared name, or ('', '') when it is neither."""
    for j, e in enumerate(head):
        if isinstance(e, Tok) and e.kind == "id":
            if e.text == "namespace":
                for k in range(j + 1, len(head)):
                    t = head[k]
                    if isinstance(t, Tok) and t.kind == "id":
                        return "namespace", t.text
                return "namespace", ""
            if e.text in ("class", "struct", "union"):
                # `struct X {` / `class X final : Base {`; but a head like
                # `const struct Foo make()` would be a function — only
                # classify as class when no param group follows the name.
                if _match_function(head) is not None:
                    return "", ""
                for k in range(j + 1, len(head)):
                    t = head[k]
                    if isinstance(t, Tok) and t.kind == "id" and t.text not in ("final", "alignas"):
                        return "class", t.text
                return "class", ""
            if e.text == "enum":
                return "enum", ""
    return "", ""


def _match_function(head: list[Element]) -> Optional[tuple[str, Grp, int]]:
    """(name, param-group, line) when the head reads as a function
    definition: an identifier directly followed by a paren group, with no
    top-level '=' before it (rules out `auto x = f(...)`-style data)."""
    for j, e in enumerate(head):
        if isinstance(e, Tok) and e.kind == "punct" and e.text == "=":
            return None
        if isinstance(e, Grp) and e.open == "(" and j > 0:
            prev = head[j - 1]
            if isinstance(prev, Tok) and prev.kind == "id" and prev.text not in _CTRL:
                return prev.text, e, prev.line
            return None
    return None


def _finish_scope(sc: Scope) -> list[Scope]:
    """Parses a scope body: statement tree, lambda child scopes, and the
    flat site list with control contexts."""
    lambdas = _mark_lambdas(sc.body.items, sc)
    sc.stmts = parse_stmts(sc.body.items)
    sc.sites = []
    _collect_sites(sc.stmts, (), sc.sites)
    # Attribute each lambda's body line for its Scope record.
    return lambdas


def _mark_lambdas(items: list[Element], parent: Scope) -> list[Scope]:
    """Finds lambda expressions anywhere under `items` (not descending
    into bodies already claimed by an inner lambda), marks their body
    groups, and returns child Scopes."""
    found: list[Scope] = []
    _scan_lambdas(items, parent, found)
    return found


def _scan_lambdas(items: list[Element], parent: Scope, found: list[Scope]) -> None:
    i = 0
    while i < len(items):
        e = items[i]
        if isinstance(e, Grp) and e.open == "[" and _starts_lambda(items, i):
            body_idx, params = _lambda_body_index(items, i)
            if body_idx is not None:
                body = items[body_idx]
                body.is_lambda_body = True
                found.append(Scope(
                    kind="lambda", name=f"<lambda:{e.line}>",
                    qual=f"{parent.qual}::<lambda:{e.line}>",
                    file=parent.file, line=e.line, body=body,
                    params_text=params, parent=parent))
                # Captures and params may contain nested lambdas; the body
                # belongs to the child scope (scanned when it is finished).
                _scan_lambdas(e.items, parent, found)
                if params:
                    pass
                i = body_idx + 1
                continue
        if isinstance(e, Grp):
            if not e.is_lambda_body:
                _scan_lambdas(e.items, parent, found)
        i += 1


def _starts_lambda(items: list[Element], i: int) -> bool:
    """A '[' group is a lambda intro (not a subscript) when it is not a
    postfix of the previous element."""
    if i == 0:
        return True
    prev = items[i - 1]
    if isinstance(prev, Grp):
        return prev.open == "{"  # `}` then `[` — block then lambda (rare)
    if prev.kind in ("id", "num", "str"):
        return False
    return prev.text not in (")", "]", ">")


def _lambda_body_index(items: list[Element], i: int) -> tuple[Optional[int], str]:
    """Given items[i] = capture group, finds the '{' body group of the
    lambda, tolerating a parameter list and specifiers in between."""
    params = ""
    j = i + 1
    budget = 12  # specifier/trailing-return tokens between ']' and '{'
    while j < len(items) and budget > 0:
        e = items[j]
        if isinstance(e, Grp):
            if e.open == "{":
                return j, params
            if e.open == "(" and not params:
                params = text_of(e.items)
            elif e.open not in ("(", "["):
                return None, params
        else:
            if e.text == ";" or e.text == ",":
                return None, params
        j += 1
        budget -= 1
    return None, params


def _collect_sites(stmts: list[Stmt], ctx: tuple[CondInfo, ...], out: list[Site]) -> None:
    extra: tuple[CondInfo, ...] = ()
    for st in stmts:
        cur = ctx + extra
        if st.kind in ("expr", "jump", "label"):
            out.append(Site(st, cur))
        elif st.kind == "if":
            ci = CondInfo("if", st.line, st.cond)
            _emit_cond_site(st, cur, out)
            _collect_sites(st.children, cur + (ci,), out)
            _collect_sites(st.else_children, cur + (ci,), out)
            jw = _branch_jump(st.children)
            jw_else = _branch_jump(st.else_children)
            # `if (divergent) return;` makes everything after divergent
            # too — record the exit so rules can judge the condition.
            if jw and not st.else_children:
                extra = extra + (CondInfo("after-exit", st.line, st.cond, jump_word=jw),)
            elif jw_else and not jw:
                extra = extra + (CondInfo("after-exit", st.line, st.cond, jump_word=jw_else),)
        elif st.kind == "loop":
            _emit_cond_site(st, cur, out)
            _collect_sites(st.children, cur + (CondInfo("loop", st.line, st.cond),), out)
        elif st.kind == "switch":
            _emit_cond_site(st, cur, out)
            _collect_sites(st.children, cur + (CondInfo("switch", st.line, st.cond),), out)
        elif st.kind in ("block", "try"):
            _collect_sites(st.children, cur, out)


def _emit_cond_site(st: Stmt, ctx: tuple[CondInfo, ...], out: list[Site]) -> None:
    """Condition expressions are call sites too (`if (c.allreduce_sum(x))`),
    so rules see them as a pseudo-site under the *enclosing* contexts."""
    if st.cond is not None:
        out.append(Site(Stmt("cond", st.line, elements=[st.cond]), ctx))


def _branch_jump(stmts: list[Stmt]) -> str:
    """Jump word ('return'/'throw'/...) when the branch unconditionally
    exits: a direct jump statement, possibly inside plain blocks."""
    for st in stmts:
        if st.kind == "jump" and st.jump_word in ("return", "throw", "continue", "break"):
            return st.jump_word
        if st.kind in ("block", "try"):
            w = _branch_jump(st.children)
            if w:
                return w
    return ""


# --- call expressions -------------------------------------------------

@dataclass
class Call:
    name: str
    line: int
    args: list[list[Element]]
    recv: str  # receiver chain text before the name ('' for free calls)
    sep: str  # '.', '->', '::', or ''
    templated: bool = False


def iter_calls(elements: list[Element], skip_lambda_bodies: bool = True) -> Iterator[Call]:
    """Yields every NAME(...) / obj.NAME(...) / obj->NAME<T>(...) call in
    the token run, recursing into argument groups. Lambda bodies are
    skipped by default — they are separate scopes with their own sites."""
    i = 0
    while i < len(elements):
        e = elements[i]
        if isinstance(e, Grp):
            if not (skip_lambda_bodies and e.is_lambda_body):
                yield from iter_calls(e.items, skip_lambda_bodies)
            i += 1
            continue
        if e.kind == "id" and e.text not in _CTRL:
            j, templated = i + 1, False
            if (j < len(elements) and isinstance(elements[j], Tok)
                    and elements[j].text == "<"):
                j2 = _scan_template_args(elements, j)
                if j2 is not None:
                    j, templated = j2, True
            if j < len(elements) and isinstance(elements[j], Grp) and elements[j].open == "(":
                grp: Grp = elements[j]
                recv, sep = _receiver_chain(elements, i)
                yield Call(name=e.text, line=e.line, args=_split_args(grp.items),
                           recv=recv, sep=sep, templated=templated)
                # arguments may hold nested calls — recurse explicitly so
                # the group is not skipped by the linear walk
                yield from iter_calls(grp.items, skip_lambda_bodies)
                i = j + 1
                continue
        i += 1


def _scan_template_args(elements: list[Element], i: int) -> Optional[int]:
    """elements[i] is '<'. Returns the index just past the matching '>'
    of a plausible template-argument list, else None."""
    depth = 0
    budget = 48
    while i < len(elements) and budget > 0:
        e = elements[i]
        if isinstance(e, Tok):
            if e.text == "<":
                depth += 1
            elif e.text == ">":
                depth -= 1
                if depth == 0:
                    return i + 1
            elif e.text in (";", "&&", "||") or e.kind == "str":
                return None
        elif e.open == "{":
            return None
        i += 1
        budget -= 1
    return None


def _receiver_chain(elements: list[Element], i: int) -> tuple[str, str]:
    """Collects the `a.b->c::` chain ending just before elements[i]."""
    if i > 0 and isinstance(elements[i - 1], Tok) and elements[i - 1].text == "template":
        i -= 1  # `obj->template f<T>(...)`: the disambiguator is no receiver
    if i == 0:
        return "", ""
    sep_tok = elements[i - 1]
    if not (isinstance(sep_tok, Tok) and sep_tok.text in (".", "->", "::")):
        return "", ""
    sep = sep_tok.text
    j = i - 1
    parts: list[str] = []
    while j > 0:
        s = elements[j]
        if not (isinstance(s, Tok) and s.text in (".", "->", "::")):
            break
        obj = elements[j - 1]
        if isinstance(obj, Grp):
            parts.append(text_of([obj]))
            j -= 2
        elif isinstance(obj, Tok) and obj.kind in ("id", "num"):
            parts.append(s.text if len(parts) else "")
            parts.append(obj.text)
            j -= 2
        else:
            break
    parts.reverse()
    return "".join(p for p in parts if p), sep


def _split_args(items: list[Element]) -> list[list[Element]]:
    args: list[list[Element]] = []
    cur: list[Element] = []
    depth = 0
    for e in items:
        if isinstance(e, Tok):
            if e.text == "<":
                depth += 1
            elif e.text == ">":
                depth = max(0, depth - 1)
            elif e.text == "," and depth == 0:
                args.append(cur)
                cur = []
                continue
        cur.append(e)
    if cur or args:
        args.append(cur)
    return args
