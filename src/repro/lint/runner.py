"""`repro lint` driver: checker dispatch, suppressions, baseline, output.

Default (no paths) run covers the repo's invariant surfaces:

* lock analysis over the five locked service modules and the multi-walk's
  walker registry (``parallel/multiwalk.py``);
* determinism lint over ``core/``, ``models/``, ``baselines/``,
  ``parallel/`` (``core/rng.py`` itself is the sanctioned entropy module);
* async-safety and HTTP retry-contract lint over the front-end,
  ``service/http_async.py``;
* kernel-mirror drift check over the ``_kernels.c`` / ``_ckernels.py`` /
  ``cwalk_mirror.py`` trio.

Explicit paths run the four source checkers on exactly those files (fixture
and editor integration); the committed baseline applies only to the default
whole-tree run.  Exit code 0 = clean (after suppressions and baseline),
1 = findings, 2 = usage error.
"""

from __future__ import annotations

import json as json_module
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from . import asyncsafety, determinism, http_contract, kernel_drift, locks
from .findings import (
    Finding,
    apply_suppressions,
    load_baseline,
    partition_against_baseline,
    render_baseline,
)

__all__ = ["RULES", "LintResult", "run", "run_cli", "repo_root"]

#: rule-id -> one-line description (the `--help` and docs source of truth).
RULES: Dict[str, str] = {
    "lock-order": "lock-acquisition cycle across a class (deadlock shape)",
    "lock-blocking": (
        "blocking operation (commit/queue.get/result/sleep/join/spawn/yield) "
        "while a lock is held"
    ),
    "unseeded-random": (
        "entropy outside core.rng seeded generators (random.*, np.random "
        "legacy state, time.time, unseeded constructors)"
    ),
    "async-blocking": (
        "blocking call on the event loop instead of run_in_executor "
        "(await self._call(...))"
    ),
    "kernel-drift": (
        "C kernel prototypes vs ctypes _SIGNATURES skew (names/arity/"
        "arg kinds/restype)"
    ),
    "rng-drift": (
        "xoshiro256**/splitmix64 constants differ between _kernels.c and "
        "the Python mirror"
    ),
    "http-retry-contract": (
        "429/503/504 response without Retry-After header or \"retry\" body "
        "field"
    ),
    "bad-suppression": (
        "repro-lint ignore comment without the mandatory '-- justification'"
    ),
}

#: Source checkers applied to .py targets (drift is path-configured apart).
_SOURCE_CHECKERS: List[Callable[[str, str], List[Finding]]] = [
    locks.check_source,
    determinism.check_source,
    asyncsafety.check_source,
    http_contract.check_source,
]

#: Which rules each source checker can emit (drives `--rule` skipping).
_CHECKER_RULES = {
    locks.check_source: {"lock-order", "lock-blocking"},
    determinism.check_source: {"unseeded-random"},
    asyncsafety.check_source: {"async-blocking"},
    http_contract.check_source: {"http-retry-contract"},
}

_LOCKED_FILES = (
    "src/repro/service/scheduler.py",
    "src/repro/service/store.py",
    "src/repro/service/qos.py",
    "src/repro/service/workers.py",
    "src/repro/service/api.py",
    "src/repro/parallel/multiwalk.py",
)
_DETERMINISM_DIRS = ("core", "models", "baselines", "parallel")
_FRONTEND_FILE = "src/repro/service/http_async.py"
_BASELINE_NAME = "lint-baseline.txt"


def repo_root() -> Path:
    """The repository root (three levels above this package)."""
    return Path(__file__).resolve().parents[3]


class LintResult:
    """Outcome of one lint run."""

    def __init__(
        self,
        new: List[Finding],
        baselined: List[Finding],
        stale_baseline: List[str],
    ) -> None:
        self.new = new
        self.baselined = baselined
        self.stale_baseline = stale_baseline

    @property
    def exit_code(self) -> int:
        return 1 if self.new else 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "findings": [f.to_dict() for f in self.new],
            "count": len(self.new),
            "baselined": len(self.baselined),
            "stale_baseline": list(self.stale_baseline),
        }


def _relative(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return str(path)


def _checker_wanted(checker, rules: Optional[Sequence[str]]) -> bool:
    if not rules:
        return True
    return bool(_CHECKER_RULES[checker] & set(rules))


def _check_python_file(
    path: Path,
    label: str,
    checkers: Sequence[Callable[[str, str], List[Finding]]],
) -> List[Finding]:
    source = path.read_text(encoding="utf-8")
    findings: List[Finding] = []
    for checker in checkers:
        findings.extend(checker(source, label))
    return apply_suppressions(findings, source)


def _default_targets(root: Path, rules: Optional[Sequence[str]]) -> List[Finding]:
    findings: List[Finding] = []
    if _checker_wanted(locks.check_source, rules):
        for rel in _LOCKED_FILES:
            path = root / rel
            if path.exists():
                findings.extend(_check_python_file(path, rel, [locks.check_source]))
    if _checker_wanted(determinism.check_source, rules):
        for sub in _DETERMINISM_DIRS:
            base = root / "src" / "repro" / sub
            for path in sorted(base.rglob("*.py")):
                rel = _relative(path, root)
                if rel == "src/repro/core/rng.py":
                    continue
                findings.extend(
                    _check_python_file(path, rel, [determinism.check_source])
                )
    frontend_checkers = [
        checker
        for checker in (asyncsafety.check_source, http_contract.check_source)
        if _checker_wanted(checker, rules)
    ]
    path = root / _FRONTEND_FILE
    if frontend_checkers and path.exists():
        findings.extend(_check_python_file(path, _FRONTEND_FILE, frontend_checkers))
    if not rules or {"kernel-drift", "rng-drift"} & set(rules):
        core = root / "src" / "repro" / "core"
        drift = kernel_drift.check_files(
            core / "_kernels.c", core / "_ckernels.py", core / "cwalk_mirror.py"
        )
        findings.extend(
            Finding(_relative(Path(f.path), root), f.line, f.rule, f.message)
            for f in drift
        )
    return findings


def run(
    root: Optional[Path] = None,
    targets: Optional[Sequence[Path]] = None,
    rules: Optional[Sequence[str]] = None,
    baseline: Optional[Path] = None,
    use_baseline: bool = True,
) -> LintResult:
    """Run the suite; see module docstring for target semantics."""
    root = root or repo_root()
    if targets:
        findings: List[Finding] = []
        for target in targets:
            if target.suffix != ".py":
                continue
            checkers = [c for c in _SOURCE_CHECKERS if _checker_wanted(c, rules)]
            findings.extend(
                _check_python_file(target, _relative(target, root), checkers)
            )
        baselined: List[Finding] = []
        stale: List[str] = []
    else:
        findings = _default_targets(root, rules)
        if use_baseline:
            baseline_path = baseline or (root / _BASELINE_NAME)
            keys = load_baseline(baseline_path)
            findings, baselined, stale = partition_against_baseline(findings, keys)
        else:
            baselined, stale = [], []
    if rules:
        wanted = set(rules) | {"bad-suppression"}
        findings = [f for f in findings if f.rule in wanted]
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return LintResult(findings, baselined, stale)


def run_cli(args) -> int:
    """Entry point for ``repro lint`` (argparse namespace in, exit code out)."""
    root = Path(args.root).resolve() if args.root else repo_root()
    rules: List[str] = []
    for spec in args.rule or []:
        rules.extend(r.strip() for r in spec.split(",") if r.strip())
    unknown = [r for r in rules if r not in RULES]
    if unknown:
        print(f"error: unknown rule(s) {', '.join(unknown)}; known: "
              f"{', '.join(sorted(RULES))}")
        return 2
    targets = [Path(p) for p in args.paths or []]
    missing = [str(p) for p in targets if not p.exists()]
    if missing:
        print(f"error: no such file(s): {', '.join(missing)}")
        return 2

    result = run(
        root=root,
        targets=targets or None,
        rules=rules or None,
        baseline=Path(args.baseline) if args.baseline else None,
        use_baseline=not args.no_baseline,
    )

    if args.write_baseline:
        if targets:
            print("error: --write-baseline applies to the whole-tree run")
            return 2
        baseline_path = Path(args.baseline) if args.baseline else root / _BASELINE_NAME
        everything = sorted(
            result.new + result.baselined,
            key=lambda f: (f.path, f.line, f.rule, f.message),
        )
        baseline_path.write_text(render_baseline(everything), encoding="utf-8")
        print(f"wrote {len(everything)} baseline entr"
              f"{'y' if len(everything) == 1 else 'ies'} to {baseline_path}")
        return 0

    if args.json:
        print(json_module.dumps(result.to_dict(), indent=2))
        return result.exit_code

    for finding in result.new:
        print(finding.render())
    for key in result.stale_baseline:
        print(f"stale baseline entry (violation no longer present): {key}")
    if result.new:
        noun = "finding" if len(result.new) == 1 else "findings"
        suffix = (
            f" ({len(result.baselined)} baselined)" if result.baselined else ""
        )
        print(f"repro lint: {len(result.new)} {noun}{suffix}")
    else:
        suffix = (
            f" ({len(result.baselined)} baselined)" if result.baselined else ""
        )
        print(f"repro lint: clean{suffix}")
    return result.exit_code
