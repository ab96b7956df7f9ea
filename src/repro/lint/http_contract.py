"""HTTP retry-contract lint for the asyncio front-end.

Rule ``http-retry-contract``.  PRs 6 and 8 established the client-visible
overload contract: every 429/503/504 answer tells the client *that* it may
retry and *when* — a ``Retry-After`` header plus ``"retry"`` (and
``"retry_after"``) body fields.  ``repro request`` and every recorded client
rely on it for backoff; a response site that forgets either half strands
clients in fail-fast mode during exactly the overload it should smooth.

Checked response shapes:

* ``return (status, body, close[, headers])`` tuples whose status is a
  literal 429/503/504 (or a parameter defaulting to one, which covers the
  shared ``_reject`` helper): the body must carry ``"retry"`` and the
  headers a ``"Retry-After"`` key;
* batch item dicts — a dict literal with ``"code": 429/503/504`` must also
  carry ``"retry"`` (batch slots have no headers, so the body field is the
  whole contract).

The body may be a dict literal or a local name that demonstrably received
``name["retry"] = ...`` earlier in the same function (the /healthz shape).
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from .findings import Finding

__all__ = ["check_source"]

_STATUSES = {429, 503, 504}


def _literal_status(node: ast.expr, retry_params: Set[str]) -> Optional[int]:
    if isinstance(node, ast.Constant) and node.value in _STATUSES:
        return int(node.value)
    if isinstance(node, ast.Name) and node.id in retry_params:
        return -1  # "some retryable status", via a defaulted parameter
    return None


def _dict_keys(node: ast.expr) -> Optional[Set[str]]:
    if not isinstance(node, ast.Dict):
        return None
    keys: Set[str] = set()
    for key in node.keys:
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            keys.add(key.value)
        elif key is None:  # **spread — give it the benefit of the doubt
            keys.add("**")
    return keys


class _FunctionCheck(ast.NodeVisitor):
    """Check the response sites of one function."""

    def __init__(self, path: str, func_name: str, retry_params: Set[str]) -> None:
        self.path = path
        self.func_name = func_name
        self.retry_params = retry_params
        #: local names that received ``name["retry"] = ...`` so far.
        self.retry_assigned: Set[str] = set()
        self.findings: List[Finding] = []

    def _flag(self, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                self.path,
                getattr(node, "lineno", 0),
                "http-retry-contract",
                f"{self.func_name}: {message}",
            )
        )

    # -- track names that demonstrably carry "retry": either assigned a
    # dict literal containing the key, or a later `name["retry"] = ...` ----
    def _track_targets(self, targets: List[ast.expr], value: ast.expr) -> None:
        keys = _dict_keys(value)
        for target in targets:
            if (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and isinstance(target.slice, ast.Constant)
                and target.slice.value == "retry"
            ):
                self.retry_assigned.add(target.value.id)
            elif isinstance(target, ast.Name) and keys is not None:
                if "retry" in keys or "**" in keys:
                    self.retry_assigned.add(target.id)
                else:
                    self.retry_assigned.discard(target.id)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._track_targets(node.targets, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._track_targets([node.target], node.value)
        self.generic_visit(node)

    def _body_has_retry(self, node: ast.expr) -> bool:
        keys = _dict_keys(node)
        if keys is not None:
            return "retry" in keys or "**" in keys
        if isinstance(node, ast.Name):
            return node.id in self.retry_assigned
        return False

    def _headers_have_retry_after(self, node: Optional[ast.expr]) -> bool:
        if node is None:
            return False
        keys = _dict_keys(node)
        if keys is None:
            return True  # dynamic headers expression: not provably wrong
        return "Retry-After" in keys or "**" in keys

    # -- responses: return (status, body, close[, headers]) ---------------
    def visit_Return(self, node: ast.Return) -> None:
        value = node.value
        if isinstance(value, ast.Tuple) and len(value.elts) >= 2:
            status = _literal_status(value.elts[0], self.retry_params)
            if status is not None:
                label = "retryable" if status == -1 else str(status)
                if not self._body_has_retry(value.elts[1]):
                    self._flag(
                        node,
                        f"{label} response body lacks the \"retry\" field "
                        "of the PR-6/8 overload contract",
                    )
                headers = value.elts[3] if len(value.elts) >= 4 else None
                if not self._headers_have_retry_after(headers):
                    self._flag(
                        node,
                        f"{label} response sends no Retry-After header",
                    )
        self.generic_visit(node)

    # -- batch item slots: {"code": 503, ...} ------------------------------
    def visit_Dict(self, node: ast.Dict) -> None:
        for key, value in zip(node.keys, node.values):
            if (
                isinstance(key, ast.Constant)
                and key.value == "code"
                and isinstance(value, ast.Constant)
                and value.value in _STATUSES
            ):
                keys = _dict_keys(node) or set()
                if "retry" not in keys:
                    self._flag(
                        node,
                        f"batch item with code {value.value} lacks the "
                        "\"retry\" field (items carry no headers, so the "
                        "body field is the whole contract)",
                    )
        self.generic_visit(node)

    # Response sites live in the function they are written in; do not
    # descend into nested defs (they are checked as their own functions).
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass


def _retry_params(func: ast.FunctionDef) -> Set[str]:
    """Parameters whose default is a literal retryable status (``_reject``'s
    ``status: int = 503`` shape)."""
    params: Set[str] = set()
    args = func.args
    positional = args.posonlyargs + args.args
    defaults = args.defaults
    for arg, default in zip(positional[len(positional) - len(defaults) :], defaults):
        if isinstance(default, ast.Constant) and default.value in _STATUSES:
            params.add(arg.arg)
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if (
            default is not None
            and isinstance(default, ast.Constant)
            and default.value in _STATUSES
        ):
            params.add(arg.arg)
    return params


def check_source(source: str, path: str) -> List[Finding]:
    """Run the HTTP retry-contract lint over one module's source."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                path,
                exc.lineno or 0,
                "http-retry-contract",
                f"unparseable: {exc.msg}",
            )
        ]
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            check = _FunctionCheck(path, node.name, _retry_params(node))
            for stmt in node.body:
                check.visit(stmt)
            findings.extend(check.findings)
    return sorted(findings, key=lambda f: (f.line, f.message))
