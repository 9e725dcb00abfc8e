"""Parser for view-update statements.

INSERT / REPLACE bodies are literal XML: the parser asks the lexer for
the raw balanced fragment and hands it to the XML parser.  Text content
that the paper writes quoted (``<bookid>"98004"</bookid>``) is
unquoted, and whitespace-only text (``<title> </title>``) becomes the
empty string — both normalizations match how the paper's update
validation step reads the fragments.
"""

from __future__ import annotations

from typing import Optional, Union

from ..errors import UpdateSyntaxError
from ..xml.nodes import XMLElement, XMLText
from ..xml.parser import parse_xml
from .ast import Binding, DocSource, Predicate, VarPath
from .lexer import Lexer, Token, TokenKind
from .update_ast import DeleteOp, InsertOp, ReplaceOp, UpdateOp, ViewUpdate

__all__ = ["parse_view_update", "unquote_text"]

_QUOTES = ('"', "'", "“", "”")


class _UpdateParser:
    def __init__(self, text: str) -> None:
        self.lexer = Lexer(text)
        self.text = text

    # -- plumbing (mirrors the view parser) ------------------------------------

    def next(self) -> Token:
        return self.lexer.next()

    def peek(self) -> Token:
        return self.lexer.peek()

    def expect(self, kind: TokenKind, value: Optional[str] = None) -> Token:
        token = self.next()
        matches = token.value == value or (
            kind is TokenKind.KEYWORD
            and value is not None
            and token.value.upper() == value.upper()
        )
        if token.kind is not kind or (value is not None and not matches):
            raise UpdateSyntaxError(
                f"expected {value or kind.value}, found {token.value!r} "
                f"at offset {token.position}"
            )
        return token

    def accept(self, kind: TokenKind, value: Optional[str] = None) -> Optional[Token]:
        token = self.peek()
        matches = value is None or token.value == value or (
            kind is TokenKind.KEYWORD and token.value.upper() == value.upper()
        )
        if token.kind is kind and matches:
            return self.next()
        return None

    def accept_keyword(self, word: str) -> bool:
        token = self.peek()
        if token.is_keyword(word):
            self.next()
            return True
        return False

    # -- grammar -------------------------------------------------------------------

    def parse(self) -> ViewUpdate:
        self.expect(TokenKind.KEYWORD, "FOR")
        bindings = [self.parse_binding()]
        while self.accept(TokenKind.COMMA):
            bindings.append(self.parse_binding())
        where: list[Predicate] = []
        if self.accept_keyword("WHERE"):
            where.append(self.parse_predicate())
            while self.accept_keyword("AND"):
                where.append(self.parse_predicate())
        self.expect(TokenKind.KEYWORD, "UPDATE")
        target = self.expect(TokenKind.VAR)
        self.expect(TokenKind.LBRACE)
        ops = [self.parse_op()]
        while self.accept(TokenKind.COMMA):
            ops.append(self.parse_op())
        self.expect(TokenKind.RBRACE)
        token = self.peek()
        if token.kind is not TokenKind.EOF:
            raise UpdateSyntaxError(
                f"trailing input after update at offset {token.position}"
            )
        return ViewUpdate(
            bindings=bindings,
            where=where,
            target_var=target.value,
            ops=ops,
            source_text=self.text,
        )

    def parse_binding(self) -> Binding:
        var = self.expect(TokenKind.VAR)
        token = self.next()
        in_like = token.is_keyword("IN") or (
            token.kind is TokenKind.OP and token.value == "="
        )
        if not in_like:
            raise UpdateSyntaxError(
                f"expected IN or = after ${var.value} at offset {token.position}"
            )
        source = self.parse_source()
        return Binding(var=var.value, source=source)

    def parse_source(self) -> Union[DocSource, VarPath]:
        token = self.peek()
        if token.kind is TokenKind.IDENT and token.value == "document":
            self.next()
            self.expect(TokenKind.LPAREN)
            document = self.expect(TokenKind.STRING)
            self.expect(TokenKind.RPAREN)
            segments: list[str] = []
            while self.accept(TokenKind.SLASH):
                name = self.next()
                if name.kind not in (TokenKind.IDENT, TokenKind.KEYWORD):
                    raise UpdateSyntaxError(
                        f"expected a path segment at offset {name.position}"
                    )
                segments.append(name.value)
            return DocSource(document=document.value, path=tuple(segments))
        if token.kind is TokenKind.VAR:
            return self.parse_var_path()
        raise UpdateSyntaxError(
            f"expected document(...) or a variable path at offset {token.position}"
        )

    def parse_var_path(self) -> VarPath:
        var = self.expect(TokenKind.VAR)
        segments: list[str] = []
        text_fn = False
        while self.accept(TokenKind.SLASH):
            name = self.next()
            # tag names may collide with keywords (<order>, <in>, ...)
            if name.kind not in (TokenKind.IDENT, TokenKind.KEYWORD):
                raise UpdateSyntaxError(
                    f"expected a path segment at offset {name.position}"
                )
            if name.value == "text" and self.accept(TokenKind.LPAREN):
                self.expect(TokenKind.RPAREN)
                text_fn = True
                break
            segments.append(name.value)
        return VarPath(var=var.value, segments=tuple(segments), text_fn=text_fn)

    def parse_predicate(self) -> Predicate:
        if self.accept(TokenKind.LPAREN):
            inner = self.parse_predicate()
            self.expect(TokenKind.RPAREN)
            return inner
        left = self.parse_operand()
        token = self.next()
        if token.kind is not TokenKind.OP:
            raise UpdateSyntaxError(
                f"expected a comparison operator at offset {token.position}"
            )
        right = self.parse_operand()
        op = "<>" if token.value == "!=" else token.value
        return Predicate(op=op, left=left, right=right)

    def parse_operand(self):
        token = self.peek()
        if token.kind is TokenKind.VAR:
            return self.parse_var_path()
        if token.kind is TokenKind.STRING:
            self.next()
            return token.value.strip()
        if token.kind is TokenKind.NUMBER:
            self.next()
            return float(token.value) if "." in token.value else int(token.value)
        raise UpdateSyntaxError(
            f"unexpected operand {token.value!r} at offset {token.position}"
        )

    def parse_op(self) -> UpdateOp:
        if self.accept_keyword("INSERT"):
            return InsertOp(fragment=self.parse_fragment())
        if self.accept_keyword("DELETE"):
            return DeleteOp(path=self.parse_var_path())
        if self.accept_keyword("REPLACE"):
            path = self.parse_var_path()
            self.expect(TokenKind.KEYWORD, "WITH")
            return ReplaceOp(path=path, fragment=self.parse_fragment())
        token = self.peek()
        raise UpdateSyntaxError(
            f"expected INSERT, DELETE or REPLACE at offset {token.position}"
        )

    def parse_fragment(self) -> XMLElement:
        raw = self.lexer.scan_raw_xml_fragment()
        fragment = parse_xml(raw)
        _normalize_fragment(fragment)
        return fragment


def unquote_text(value: str) -> str:
    """Literal text content as validation reads it: trimmed, unquoted."""
    value = value.strip()
    if len(value) >= 2 and value[0] in _QUOTES and value[-1] in _QUOTES:
        value = value[1:-1]
    return value


def _normalize_fragment(node: XMLElement) -> None:
    """Unquote and trim literal text content, in place."""
    for child in list(node.children):
        if isinstance(child, XMLText):
            value = unquote_text(child.value)
            if value:
                child.value = value
            else:
                node.children.remove(child)
        elif isinstance(child, XMLElement):
            _normalize_fragment(child)


def parse_view_update(text: str, name: str = "") -> ViewUpdate:
    """Parse a view-update statement; *name* labels it (u1, u2, ...)."""
    update = _UpdateParser(text).parse()
    update.name = name
    return update
