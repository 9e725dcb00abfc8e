"""Prepared view updates: parse each update shape once, bind literals per call.

U-Filter's Steps 1–2 depend only on an update's structure; its literals
matter only to value validation and the data check.  A workload that
sends thousands of updates in a handful of shapes therefore need not
lex and parse every one of them.

:func:`literal_skeleton` blanks an update's literal regions in one
regex pass and collects their raw text:

* quoted strings (``"98001"``), except the ``document("...")`` name;
* the non-blank text of a leaf element (``<title>Data</title>``),
  i.e. text between an opening tag and the next closing tag.

Numbers stay in the skeleton: at worst one template per distinct number.

On a skeleton's first sight the caller parses :func:`sentinel_text`,
the skeleton with each region replaced by a unique sentinel that
cannot occur in update text, and :meth:`UpdateTemplate.compile` keeps
the result only if every sentinel came out as a whole literal of its
own kind: a quoted region as one WHERE operand, a text region as one
fragment text node.  Anything else (a quote inside an XQuery comment,
a quoted text run inside mixed content) makes the skeleton
uncacheable, and its texts take the full parse.  Texts that already
contain the sentinel character are never templated.

:meth:`UpdateTemplate.bind` then builds a fresh :class:`ViewUpdate`
from another text's literals, normalizing them exactly as the parser
does: WHERE strings are stripped; fragment text is entity-decoded,
stripped and unquoted.  Text that normalizes to empty would be dropped
by the parser, changing the structure, so binding declines it.
"""

from __future__ import annotations

import re
from collections import OrderedDict
from typing import Any, Optional

from ..xml.nodes import XMLElement, XMLText
from ..xml.parser import decode_entities
from .ast import Predicate
from .update_ast import DeleteOp, InsertOp, ReplaceOp, UpdateOp, ViewUpdate
from .update_parser import unquote_text

__all__ = [
    "MARK",
    "TemplateCache",
    "UpdateTemplate",
    "literal_skeleton",
    "sentinel_text",
]

#: stands for a blanked literal in a skeleton; a private-use character
#: is neither a name, space, digit nor quote, so the lexer never lets
#: it through outside a literal
MARK = "\ue000"

#: the lookahead lets the scan skip a position on one character test
_LITERALS = re.compile(
    r"""(?=[d"'“”<])(?:"""
    r"""(document\s*\(\s*(?:"[^"]*"|'[^']*'|[“”][^“”"]*[“”"]))"""  # 1: kept
    r"""|"[^"]*"|'[^']*'|[“”][^“”"]*[“”"]"""                       # quoted
    r"|(<[A-Za-z_][\w.\-]*>)\s*[^\s<][^<]*(?=</))"                  # 2: text
)

#: regions of kind "string" are WHERE operands, "text" fragment text
_STRING, _TEXT = "string", "text"


def literal_skeleton(text: str) -> Optional[tuple[str, list[tuple[str, str]]]]:
    """The update's skeleton and its literal regions as ``(kind, raw)``,
    or None when *text* already contains :data:`MARK`."""
    if MARK in text:
        return None
    regions: list[tuple[str, str]] = []
    append = regions.append

    def blank(match: re.Match) -> str:
        group = match.lastindex
        if group == 1:
            return match.group(1)
        if group == 2:
            tag = match.group(2)
            append((_TEXT, match.group(0)[len(tag):]))
            return tag + MARK
        whole = match.group(0)
        append((_STRING, whole[1:-1]))
        return whole[0] + MARK + whole[-1]

    return _LITERALS.sub(blank, text), regions


def sentinel(index: int) -> str:
    return f"{MARK}{index}{MARK}"


def sentinel_text(skeleton: str) -> str:
    """The skeleton with region *k* replaced by :func:`sentinel` (k)."""
    pieces = skeleton.split(MARK)
    out = [pieces[0]]
    for index, piece in enumerate(pieces[1:]):
        out.append(sentinel(index))
        out.append(piece)
    return "".join(out)


class UpdateTemplate:
    """One update shape, parsed once from its sentinel text.

    ``where`` holds, per WHERE predicate, the region indexes of its
    left and right operands (None for a structural operand); fragment
    text nodes name their region through their sentinel value.
    """

    __slots__ = ("update", "where", "slots")

    def __init__(
        self,
        update: ViewUpdate,
        where: list[tuple[Optional[int], Optional[int]]],
        slots: dict[str, int],
    ) -> None:
        self.update = update
        self.where = where
        self.slots = slots

    @classmethod
    def compile(
        cls, update: ViewUpdate, kinds: list[str]
    ) -> Optional["UpdateTemplate"]:
        """The template of a parsed sentinel text, or None when some
        sentinel is not exactly one whole literal of its kind."""
        slots = {sentinel(index): index for index in range(len(kinds))}
        seen: list[int] = []

        def region(value: Any, kind: str) -> Optional[int]:
            index = slots.get(value) if isinstance(value, str) else None
            if index is not None and kinds[index] == kind:
                seen.append(index)
                return index
            return None

        where = [
            (region(p.left, _STRING), region(p.right, _STRING))
            for p in update.where
        ]
        for op in update.ops:
            fragment = getattr(op, "fragment", None)
            if fragment is not None:
                _collect_text(fragment, lambda value: region(value, _TEXT))
        if sorted(seen) != list(range(len(kinds))):
            return None
        # a sentinel left anywhere else (an attribute, a document name,
        # part of a longer literal) shows as surplus marks
        if str(update).count(MARK) != 2 * len(kinds):
            return None
        return cls(update, where, slots)

    def bind(
        self, regions: list[tuple[str, str]], text: str, name: str
    ) -> Optional[ViewUpdate]:
        """A fresh update carrying *regions*' literals, or None when a
        fragment text normalizes to empty (the parser would drop it)."""
        values: list[str] = []
        for kind, raw in regions:
            if kind == _STRING:
                values.append(raw.strip())
            else:
                value = unquote_text(decode_entities(raw) if "&" in raw else raw)
                if not value:
                    return None
                values.append(value)
        template = self.update
        where = []
        for predicate, (left, right) in zip(template.where, self.where):
            if left is None and right is None:
                where.append(predicate)
            else:
                where.append(Predicate(
                    op=predicate.op,
                    left=predicate.left if left is None else values[left],
                    right=predicate.right if right is None else values[right],
                ))
        return ViewUpdate(
            bindings=list(template.bindings),
            where=where,
            target_var=template.target_var,
            ops=[self._bind_op(op, values) for op in template.ops],
            source_text=text,
            name=name,
        )

    def _bind_op(self, op: UpdateOp, values: list[str]) -> UpdateOp:
        if isinstance(op, InsertOp):
            return InsertOp(fragment=self._bind_element(op.fragment, values))
        if isinstance(op, ReplaceOp):
            return ReplaceOp(
                path=op.path, fragment=self._bind_element(op.fragment, values)
            )
        return DeleteOp(path=op.path)

    def _bind_element(self, node: XMLElement, values: list[str]) -> XMLElement:
        copy = XMLElement(node.tag, attributes=node.attributes)
        slots = self.slots
        for child in node.children:
            if isinstance(child, XMLText):
                index = slots.get(child.value)
                copy.append(XMLText(
                    child.value if index is None else values[index]
                ))
            else:
                copy.append(self._bind_element(child, values))
        return copy


def _collect_text(node: XMLElement, visit) -> None:
    for child in node.children:
        if isinstance(child, XMLText):
            visit(child.value)
        elif isinstance(child, XMLElement):
            _collect_text(child, visit)


class TemplateCache:
    """Skeleton -> shape entry (None: uncacheable), the least recently
    used evicted past :attr:`capacity`.

    Each parsed text counts once: ``hits`` were bound from a cached
    template, ``misses`` had a skeleton not seen before, and
    ``uncacheable`` took the full parse on a known skeleton (one marked
    uncacheable, or a literal that normalizes to empty) or held
    :data:`MARK` itself.
    """

    capacity = 256

    def __init__(self) -> None:
        self._entries: OrderedDict[str, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.uncacheable = 0

    def lookup(self, skeleton: str) -> tuple[bool, Any]:
        """``(known, entry)``; a known skeleton becomes the most recent."""
        entries = self._entries
        if skeleton not in entries:
            return False, None
        entries.move_to_end(skeleton)
        return True, entries[skeleton]

    def put(self, skeleton: str, entry: Any) -> None:
        entries = self._entries
        entries[skeleton] = entry
        if len(entries) > self.capacity:
            entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)
