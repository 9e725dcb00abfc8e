"""Resolution of a parsed view update against the view ASG.

Before any checking step can run, the update's variable bindings, WHERE
predicates and operations must be anchored to schema nodes of ``G_V``:

* each FOR binding walks tag names from the root (or from an already
  bound variable),
* each predicate's variable path resolves to a leaf (giving the backing
  ``relation.attribute`` and, for literal comparisons, a
  :class:`ValueConstraint` usable in overlap checks and probe queries),
* each operation resolves to the schema node it deletes/inserts.

Resolution failures are recorded, not raised — Step 1 turns them into
*invalid* verdicts with the failure as the reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..xml.nodes import XMLElement
from ..xquery.ast import Binding, DocSource, Predicate, VarPath
from ..xquery.update_ast import DeleteOp, InsertOp, ReplaceOp, UpdateOp, ViewUpdate
from .asg import NodeKind, ValueConstraint, ViewASG, ViewNode

__all__ = [
    "PredicateResolution",
    "OpResolution",
    "ResolvedUpdate",
    "rebind_update",
    "resolve_update",
]


@dataclass
class PredicateResolution:
    predicate: Predicate
    #: leaf node backing the variable-path side (None when unresolved)
    leaf: Optional[ViewNode] = None
    relation: Optional[str] = None
    attribute: Optional[str] = None
    #: ``value op literal`` form, for literal comparisons
    constraint: Optional[ValueConstraint] = None
    error: str = ""


@dataclass
class OpResolution:
    op: UpdateOp
    kind: str                       # insert / delete / replace
    node: Optional[ViewNode] = None
    text_delete: bool = False
    fragment: Optional[XMLElement] = None
    error: str = ""


@dataclass
class ResolvedUpdate:
    update: ViewUpdate
    env: dict[str, ViewNode] = field(default_factory=dict)
    target: Optional[ViewNode] = None
    predicates: list[PredicateResolution] = field(default_factory=list)
    ops: list[OpResolution] = field(default_factory=list)
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error and all(not op.error for op in self.ops)


def _walk_tags(node: ViewNode, tags: tuple[str, ...]) -> Optional[ViewNode]:
    current = node
    for tag in tags:
        child = current.child_by_tag(tag)
        if child is None:
            return None
        current = child
    return current


def _resolve_bindings(
    asg: ViewASG, bindings: list[Binding], resolved: ResolvedUpdate
) -> None:
    for binding in bindings:
        source = binding.source
        if isinstance(source, DocSource):
            node = _walk_tags(asg.root, source.path)
            if node is None:
                resolved.error = (
                    f"binding ${binding.var}: path "
                    f"/{'/'.join(source.path)} does not exist in the view schema"
                )
                return
            resolved.env[binding.var] = node
            continue
        if isinstance(source, VarPath):
            if source.var not in resolved.env:
                resolved.error = f"binding ${binding.var}: ${source.var} is unbound"
                return
            node = _walk_tags(resolved.env[source.var], source.segments)
            if node is None:
                resolved.error = (
                    f"binding ${binding.var}: path {source} does not exist "
                    f"in the view schema"
                )
                return
            resolved.env[binding.var] = node
            continue
        resolved.error = f"binding ${binding.var}: unsupported source"
        return


def _leaf_of(node: ViewNode) -> Optional[ViewNode]:
    """The leaf behind a tag node (or the node itself when already a leaf)."""
    if node.kind is NodeKind.LEAF:
        return node
    if node.kind is NodeKind.TAG:
        for child in node.children:
            if child.kind is NodeKind.LEAF:
                return child
    return None


def _resolve_predicate(
    asg: ViewASG, predicate: Predicate, env: dict[str, ViewNode]
) -> PredicateResolution:
    resolution = PredicateResolution(predicate=predicate)
    # orient so the variable path is on the left
    left, right, op = predicate.left, predicate.right, predicate.op
    if not isinstance(left, VarPath) and isinstance(right, VarPath):
        left, right = right, left
        op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
    if not isinstance(left, VarPath):
        resolution.error = f"predicate {predicate} references no variable"
        return resolution
    if left.var not in env:
        resolution.error = f"predicate {predicate}: ${left.var} is unbound"
        return resolution
    node = _walk_tags(env[left.var], left.segments)
    if node is None:
        resolution.error = (
            f"predicate {predicate}: path {left} does not exist in the view"
        )
        return resolution
    leaf = _leaf_of(node)
    if leaf is None:
        resolution.error = (
            f"predicate {predicate}: path {left} names a complex element"
        )
        return resolution
    resolution.leaf = leaf
    resolution.relation = leaf.relation
    resolution.attribute = leaf.attribute
    if isinstance(right, VarPath):
        resolution.error = (
            f"predicate {predicate}: correlations between update variables "
            f"are not supported"
        )
        return resolution
    resolution.constraint = ValueConstraint(op, right)
    return resolution


def resolve_update(asg: ViewASG, update: ViewUpdate) -> ResolvedUpdate:
    """Anchor *update* to the nodes of ``G_V``."""
    resolved = ResolvedUpdate(update=update)
    _resolve_bindings(asg, update.bindings, resolved)
    if resolved.error:
        return resolved
    if update.target_var not in resolved.env:
        resolved.error = f"update target ${update.target_var} is unbound"
        return resolved
    resolved.target = resolved.env[update.target_var]
    for predicate in update.where:
        resolved.predicates.append(
            _resolve_predicate(asg, predicate, resolved.env)
        )
    for op in update.ops:
        resolved.ops.append(_resolve_op(asg, op, resolved))
    return resolved


def _resolve_op(
    asg: ViewASG, op: UpdateOp, resolved: ResolvedUpdate
) -> OpResolution:
    assert resolved.target is not None
    if isinstance(op, InsertOp):
        node = resolved.target.child_by_tag(op.fragment.tag)
        result = OpResolution(
            op=op, kind="insert", node=node, fragment=op.fragment
        )
        if node is None:
            result.error = (
                f"insert: the view schema allows no <{op.fragment.tag}> "
                f"inside <{resolved.target.name}>"
            )
        return result
    if isinstance(op, (DeleteOp, ReplaceOp)):
        kind = "delete" if isinstance(op, DeleteOp) else "replace"
        path = op.path
        if path.var not in resolved.env:
            return OpResolution(
                op=op, kind=kind, error=f"{kind}: ${path.var} is unbound"
            )
        node = _walk_tags(resolved.env[path.var], path.segments)
        result = OpResolution(
            op=op,
            kind=kind,
            node=node,
            text_delete=path.text_fn,
            fragment=op.fragment if isinstance(op, ReplaceOp) else None,
        )
        if node is None:
            result.error = (
                f"{kind}: path {path} does not exist in the view schema"
            )
        return result
    return OpResolution(op=op, kind="unknown", error=f"unsupported op {op!r}")


def rebind_update(template: ResolvedUpdate, update: ViewUpdate) -> ResolvedUpdate:
    """*template*'s resolution carried over to *update*, an update of
    the same shape with other literals (see
    :mod:`repro.xquery.update_template`).

    Bindings, target, leaves and operation nodes depend on the shape
    alone and are shared; each predicate's constraint takes the new
    literal, and each operation its new op and fragment.
    """
    predicates = []
    for resolution, predicate in zip(template.predicates, update.where):
        constraint = resolution.constraint
        if constraint is not None:
            # _resolve_predicate orients the variable path to the left
            literal = (
                predicate.right if isinstance(predicate.left, VarPath)
                else predicate.left
            )
            constraint = ValueConstraint(constraint.op, literal)
        predicates.append(PredicateResolution(
            predicate=predicate,
            leaf=resolution.leaf,
            relation=resolution.relation,
            attribute=resolution.attribute,
            constraint=constraint,
            error=resolution.error,
        ))
    ops = [
        OpResolution(
            op=op,
            kind=resolution.kind,
            node=resolution.node,
            text_delete=resolution.text_delete,
            fragment=None if resolution.fragment is None else op.fragment,
            error=resolution.error,
        )
        for resolution, op in zip(template.ops, update.ops)
    ]
    return ResolvedUpdate(
        update=update,
        env=dict(template.env),
        target=template.target,
        predicates=predicates,
        ops=ops,
        error=template.error,
    )
