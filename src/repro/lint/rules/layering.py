"""GRN002 — the layer DAG.

The package is stratified so that the compute stack composes strictly
upward::

    exceptions < utils < faults/metrics/observability
        < storage/models/preprocessing/datasets < pipeline < energy
        < ensemble/metalearning/hpo < evalstore < systems < devtuning
        < runtime/experiments/analysis < serving < cli/__main__

``faults`` and ``observability`` sit low on purpose: the runtime,
energy and systems layers all import their injection/tracing hooks, so
the chaos and instrumentation subsystems must depend on nothing above
``utils``.

A module may import from strictly lower layers.  Two groups of
deliberate same-layer edges are tolerated: ``preprocessing → models``
(transformers reuse the estimator base classes) and anything inside the
application layer ``{runtime, experiments, analysis}``, whose members
are mutually entangled by design (the executor produces the
``RunRecord`` rows the experiment harness aggregates).  Everything else
— an upward import, or a cross import between siblings — is a layering
violation that would eventually make the from-scratch stack circular.
"""

from __future__ import annotations

import ast

from repro.lint.core import FileContext, Finding, Rule

#: subpackage (or top-level module) -> layer rank; imports must flow
#: from high rank to strictly lower rank
LAYERS: dict[str, int] = {
    "exceptions": 0,
    "utils": 1,
    "faults": 2,
    "observability": 2,
    "metrics": 2,
    # the content-addressed store primitive: counters on an
    # observability registry, codecs in evalstore/runtime/serving above
    "storage": 3,
    "models": 3,
    "preprocessing": 3,
    "datasets": 3,
    "pipeline": 4,
    "energy": 5,
    "ensemble": 6,
    "metalearning": 6,
    "hpo": 6,
    # the evaluation store replays ensemble selection and mines
    # portfolios over persisted trials, so it sits above those engines;
    # systems write through to it via the capture hook, so it sits below
    "evalstore": 7,
    "systems": 8,
    "devtuning": 9,
    "runtime": 10,
    "experiments": 10,
    "analysis": 10,
    "lint": 10,
    # serving deploys what the campaign layer trained: it loads systems
    # and reuses the runtime's chaos-report shape, so it sits above the
    # application layer and below the CLI
    "serving": 11,
    "cli": 12,
    "__main__": 12,
    "__init__": 12,
}

#: same-rank edges that are part of the design rather than drift
ALLOWED_SAME_RANK: frozenset[tuple[str, str]] = frozenset(
    {("preprocessing", "models"), ("__main__", "cli")}
    | {
        (a, b)
        for a in ("runtime", "experiments", "analysis")
        for b in ("runtime", "experiments", "analysis")
        if a != b
    }
)


class LayeringRule(Rule):
    code = "GRN002"
    name = "layer-dag"
    rationale = (
        "imports inside repro must follow the layer DAG; upward or "
        "sibling imports grow cycles that break the from-scratch stack"
    )

    def check_file(self, ctx: FileContext) -> list[Finding]:
        src_pkg = ctx.package
        if src_pkg is None:
            return []
        src_rank = LAYERS.get(src_pkg)
        if src_rank is None:
            return [self.finding(
                ctx, ctx.tree,
                f"package 'repro.{src_pkg}' has no layer assignment; "
                f"add it to repro.lint.rules.layering.LAYERS",
            )]
        findings = []
        for node in ast.walk(ctx.tree):
            for target in self._repro_targets(ctx, node):
                findings.extend(
                    self._judge(ctx, node, src_pkg, src_rank, target)
                )
        return findings

    def _repro_targets(self, ctx: FileContext, node: ast.AST) -> list[str]:
        """Dotted repro modules imported by ``node`` (resolving relative
        imports against the file's own module)."""
        if isinstance(node, ast.Import):
            return [item.name for item in node.names
                    if item.name.split(".")[0] == "repro"]
        if not isinstance(node, ast.ImportFrom):
            return []
        if node.level == 0:
            module = node.module or ""
            if module.split(".")[0] != "repro":
                return []
            return [module]
        if ctx.module is None:
            return []
        base = ctx.module.split(".")
        # level=1 strips the module name itself, each extra level one
        # more package
        base = base[: len(base) - node.level]
        if node.module:
            base = base + node.module.split(".")
        if not base or base[0] != "repro":
            return []
        return [".".join(base)]

    def _judge(self, ctx: FileContext, node: ast.AST, src_pkg: str,
               src_rank: int, target: str) -> list[Finding]:
        parts = target.split(".")
        dst_pkg = parts[1] if len(parts) > 1 else "__init__"
        if dst_pkg == src_pkg:
            return []
        dst_rank = LAYERS.get(dst_pkg)
        if dst_rank is None:
            return [self.finding(
                ctx, node,
                f"import target 'repro.{dst_pkg}' has no layer "
                f"assignment; add it to repro.lint.rules.layering.LAYERS",
            )]
        if dst_rank < src_rank:
            return []
        if dst_rank == src_rank and (src_pkg, dst_pkg) in ALLOWED_SAME_RANK:
            return []
        direction = "upward" if dst_rank > src_rank else "sibling"
        return [self.finding(
            ctx, node,
            f"layering violation: repro.{src_pkg} (layer {src_rank}) "
            f"imports repro.{dst_pkg} (layer {dst_rank}) — {direction} "
            f"edges are forbidden",
        )]
