"""Typed-error contract: two rules.

``typed-raise`` — public entry points of the serving runtime
(``src/repro/runtime/*.py``, public class + public method or public
module-level function) may only raise exceptions from the documented
typed set: the runtime's own error taxonomy (``QueueFull``,
``DeadlineExceeded``, ``SwapRejected``, ``WorkerCrashError``, ...) plus
the narrow builtin contract errors (``ValueError``, ``TypeError``, ...).
Raising bare ``RuntimeError`` / ``Exception`` from a public API is
flagged: callers cannot catch what the API does not name.  Re-raises
(``raise`` / ``raise exc``) always pass — propagation is not a new
contract.

``broad-except`` — ``except Exception:`` (or bare / ``BaseException``)
anywhere is an error unless the handler re-raises (any ``raise``
statement in its body) or carries ``# lint: disable=broad-except`` with
a written reason.  This is what forced the triage of the runtime's
pre-existing broad handlers: each is now either narrowed or annotated.
"""

from __future__ import annotations

import ast

from repro.analysis.core import Checker, Diagnostic, FileContext, register_checker

# The runtime's documented typed-error taxonomy (serve.py, pool.py,
# planio.py) plus builtins that *are* the contract for argument/state
# validation.  RuntimeError and Exception are deliberately absent.
ALLOWED_RAISES = {
    # runtime taxonomy
    "QueueFull",
    "DeadlineExceeded",
    "SwapRejected",
    "EngineStopped",
    "WorkerCrashError",
    "PoolDegradedError",
    "RemoteTraceback",
    "PlanFormatError",
    "PlanDigestError",
    # builtin contract errors
    "ValueError",
    "TypeError",
    "KeyError",
    "IndexError",
    "AttributeError",
    "NotImplementedError",
    "FileNotFoundError",
    "OSError",
    "StopIteration",
    "TimeoutError",
    "AssertionError",
    "KeyboardInterrupt",
    "SystemExit",
}

_BROAD = {"Exception", "BaseException"}


def _exc_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_runtime_path(path: str) -> bool:
    return "repro/runtime/" in path.replace("\\", "/")


@register_checker
class TypedErrorChecker(Checker):
    name = "typed-errors"
    rules = ("typed-raise", "broad-except")
    description = (
        "public runtime entry points raise only documented typed errors; "
        "'except Exception' must re-raise, chain, or carry a pragma"
    )

    def check(self, ctx: FileContext) -> list[Diagnostic]:
        diags = self._broad_excepts(ctx)
        if _is_runtime_path(ctx.path):
            diags.extend(self._typed_raises(ctx))
        return diags

    # ------------------------------------------------------------ #
    def _broad_excepts(self, ctx: FileContext) -> list[Diagnostic]:
        diags: list[Diagnostic] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            names: set[str] = set()
            if node.type is None:
                names.add("<bare>")
            elif isinstance(node.type, ast.Tuple):
                names.update(filter(None, (_exc_name(e) for e in node.type.elts)))
            else:
                name = _exc_name(node.type)
                if name:
                    names.add(name)
            broad = names & (_BROAD | {"<bare>"})
            if not broad:
                continue
            if any(isinstance(n, ast.Raise) for n in ast.walk(node)):
                continue  # re-raises or chains: propagation is fine
            caught = "bare except" if "<bare>" in broad else f"except {broad.pop()}"
            diags.append(
                ctx.diag(
                    "broad-except",
                    node.lineno,
                    f"{caught} swallows all failures without re-raising; "
                    "narrow it or annotate '# lint: disable=broad-except — reason'",
                )
            )
        return diags

    # ------------------------------------------------------------ #
    def _typed_raises(self, ctx: FileContext) -> list[Diagnostic]:
        diags: list[Diagnostic] = []
        for fn, public in self._entry_points(ctx.tree):
            if not public:
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Raise) or node.exc is None:
                    continue
                exc = node.exc
                if isinstance(exc, ast.Call):
                    name = _exc_name(exc.func)
                elif isinstance(exc, ast.Name):
                    continue  # `raise err` — propagating a caught object
                else:
                    name = _exc_name(exc)
                if name is None or name in ALLOWED_RAISES:
                    continue
                diags.append(
                    ctx.diag(
                        "typed-raise",
                        node.lineno,
                        f"public runtime entry point raises {name}, which is "
                        "not in the documented typed-error set "
                        "(see repro/analysis/checkers/errors.py)",
                    )
                )
        return diags

    def _entry_points(self, tree: ast.Module):
        """Yield (function node, is_public) for module-level functions and
        methods of module-level classes."""
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node, not node.name.startswith("_")
            elif isinstance(node, ast.ClassDef):
                cls_public = not node.name.startswith("_")
                for meth in node.body:
                    if isinstance(meth, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        public = (
                            cls_public
                            and not meth.name.startswith("_")
                            or meth.name in ("__enter__", "__exit__", "__call__")
                            and cls_public
                        )
                        yield meth, public
