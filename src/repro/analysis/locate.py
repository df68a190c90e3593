"""Location-tracking XML parsing shared by the configuration parsers.

``xml.etree.ElementTree`` discards source positions, which is fine for a
runtime but useless for a linter: a diagnostic that cannot say *where* the
problem is forces the user to grep.  :class:`LocatingXMLParser` re-parses
with the underlying expat parser and records, for every element, the
1-based line and column where its start tag opens.

The C accelerator of :class:`xml.etree.ElementTree.XMLParser` does not let
subclasses observe the expat state (overriding ``_start`` is silently
ignored), so this wrapper drives :mod:`xml.parsers.expat` directly and
feeds a stock :class:`~xml.etree.ElementTree.TreeBuilder` — the resulting
tree is an ordinary ElementTree, plus a side table of source positions.

Both configuration parsers (:mod:`repro.config.schema` and
:mod:`repro.config.workflow`) parse through this module so their errors can
carry ``file:line`` locations, and the static analyzer
(:mod:`repro.analysis`) uses the same positions for its diagnostics.
"""

from __future__ import annotations

import os
import xml.etree.ElementTree as ET
import xml.parsers.expat
from typing import Optional, Union

from repro.errors import ConfigError, Record


class SourcePosition(Record):
    """1-based line/column of an element's start tag."""

    line: int
    column: int


class XMLLocationError(ValueError):
    """Malformed XML, with the position where parsing failed."""

    def __init__(self, message: str, line: Optional[int], column: Optional[int]) -> None:
        super().__init__(message)
        self.line = line
        self.column = column


class LocatedTree:
    """A parsed element tree plus per-element source positions."""

    def __init__(self, root: ET.Element, positions: dict[int, SourcePosition]) -> None:
        self.root = root
        self._positions = positions

    def position(self, elem: ET.Element) -> Optional[SourcePosition]:
        """The recorded start-tag position of ``elem``, if any."""
        return self._positions.get(id(elem))

    def line(self, elem: Optional[ET.Element]) -> Optional[int]:
        """1-based line of ``elem``'s start tag (None when unknown)."""
        if elem is None:
            return None
        pos = self.position(elem)
        return pos.line if pos is not None else None

    def column(self, elem: Optional[ET.Element]) -> Optional[int]:
        """1-based column of ``elem``'s start tag (None when unknown)."""
        if elem is None:
            return None
        pos = self.position(elem)
        return pos.column if pos is not None else None


class LocatingXMLParser:
    """An ``ET.XMLParser`` replacement that remembers source positions.

    Usage::

        tree = LocatingXMLParser().parse(xml_text)
        tree.root            # ordinary ET.Element
        tree.line(element)   # 1-based line of the start tag
    """

    def parse(self, source: str) -> LocatedTree:
        """Parse ``source`` XML, recording each element's start position."""
        builder = ET.TreeBuilder()
        positions: dict[int, SourcePosition] = {}
        parser = xml.parsers.expat.ParserCreate()
        parser.buffer_text = True

        def handle_start(tag: str, attrs: dict[str, str]) -> None:
            elem = builder.start(tag, attrs)
            positions[id(elem)] = SourcePosition(
                line=parser.CurrentLineNumber,
                # expat columns are 0-based; report 1-based like compilers do
                column=parser.CurrentColumnNumber + 1,
            )

        parser.StartElementHandler = handle_start
        parser.EndElementHandler = lambda tag: builder.end(tag)
        parser.CharacterDataHandler = lambda data: builder.data(data)

        try:
            parser.Parse(source, True)
            root = builder.close()
        except xml.parsers.expat.ExpatError as exc:
            raise XMLLocationError(
                str(exc), getattr(exc, "lineno", None), getattr(exc, "offset", None)
            ) from exc
        except ET.ParseError as exc:  # TreeBuilder.close() on empty input
            raise XMLLocationError(str(exc), None, None) from exc
        return LocatedTree(root, positions)


def parse_located(source: str) -> LocatedTree:
    """Parse ``source`` and return the tree with source positions."""
    return LocatingXMLParser().parse(source)


def format_location(filename: Optional[str], line: Optional[int]) -> str:
    """Render ``file:line`` for error messages (empty when unknown)."""
    name = filename or "<config>"
    if line is None:
        return name
    return f"{name}:{line}"


def read_config(path: Union[str, os.PathLike]) -> str:
    """The text of a configuration file; a missing or unreadable one (or a
    directory) is a :class:`~repro.errors.ConfigError` naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(
            f"cannot read configuration {os.fspath(path)!r}: {exc.strerror}"
        ) from None
