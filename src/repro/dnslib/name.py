"""Domain names.

A :class:`Name` is an immutable, hashable sequence of labels, always stored
fully qualified (the empty root label is implicit and never stored).  Names
compare and hash case-insensitively, as required by RFC 1035 section 2.3.3,
while preserving the original spelling for display.

The wire encoding (including compression pointers) lives in
:mod:`repro.dnslib.wire`; this module only handles the text form and the
label algebra (parent/child/subdomain tests) the resolvers need.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Tuple

from .errors import NameError_

MAX_LABEL_LENGTH = 63
MAX_NAME_LENGTH = 255


@lru_cache(maxsize=65536)
def _from_text_interned(text: str) -> "Name":
    """Shared-instance parse cache behind :meth:`Name.from_text`.

    Names are immutable and hash/compare by value, so handing the same
    object back for a repeated string is observationally transparent while
    skipping the per-label validation work on the hot dataset paths (every
    trace record re-parses its qname).
    """
    if text.endswith("."):
        text = text[:-1]
    if not text:
        return ROOT
    try:
        labels = [lab.encode("ascii") for lab in text.split(".")]
    except UnicodeEncodeError as exc:
        raise NameError_(f"non-ASCII name: {text!r}") from exc
    return Name(labels)


class Name:
    """A fully-qualified domain name.

    >>> Name.from_text("WWW.Example.COM") == Name.from_text("www.example.com.")
    True
    >>> Name.from_text("a.b.example.com").is_subdomain_of(Name.from_text("example.com"))
    True
    """

    __slots__ = ("_labels", "_folded", "_hash", "_text")

    def __init__(self, labels: Iterable[bytes]):
        labels = tuple(map(bytes, labels))
        wire_len = 1
        for label in labels:
            size = len(label)
            if not size:
                raise NameError_("empty label")
            if size > MAX_LABEL_LENGTH:
                raise NameError_(
                    f"label exceeds {MAX_LABEL_LENGTH} octets: {label!r}")
            wire_len += size + 1
        if wire_len > MAX_NAME_LENGTH:
            raise NameError_(f"name exceeds {MAX_NAME_LENGTH} octets")
        self._labels = labels
        self._folded = tuple([label.lower() for label in labels])
        # Cached __hash__ value only; per-process salting is fine because
        # the hash never orders any observable output.
        self._hash = hash(self._folded)  # repro-lint: disable=RS001
        self._text: str = ""

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "Name":
        """Parse a name from presentation format.

        A trailing dot is accepted and ignored; ``"."`` and ``""`` both give
        the root name.  Results are interned: repeated parses of one string
        return the same immutable instance.
        """
        if text in ("", "."):
            return ROOT
        return _from_text_interned(text)

    @classmethod
    def root(cls) -> "Name":
        """The root name ``.`` (zero labels)."""
        return ROOT

    # -- accessors ---------------------------------------------------------

    @property
    def labels(self) -> Tuple[bytes, ...]:
        """The labels, most-specific first, without the root label."""
        return self._labels

    @property
    def folded(self) -> Tuple[bytes, ...]:
        """The case-folded (lowercase) labels, memoized at construction.

        The wire encoder keys its compression table by these, so exposing
        the precomputed tuple saves a per-label ``lower()`` pass on every
        encoded name.
        """
        return self._folded

    def to_text(self) -> str:
        """Presentation format; the root renders as ``"."`` (memoized)."""
        if not self._labels:
            return "."
        text = self._text
        if not text:
            text = ".".join(lab.decode("ascii") for lab in self._labels) + "."
            self._text = text
        return text

    def is_root(self) -> bool:
        """True for the zero-label root name."""
        return not self._labels

    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self) -> Iterator[bytes]:
        return iter(self._labels)

    # -- algebra -----------------------------------------------------------

    def parent(self) -> "Name":
        """The name with the most-specific label removed.

        Raises :class:`NameError_` for the root, which has no parent.
        """
        if not self._labels:
            raise NameError_("the root name has no parent")
        return Name(self._labels[1:])

    def child(self, label: str) -> "Name":
        """Prepend ``label`` to this name."""
        return Name((label.encode("ascii"),) + self._labels)

    def concatenate(self, suffix: "Name") -> "Name":
        """Append ``suffix``'s labels after this name's labels."""
        return Name(self._labels + suffix._labels)

    def is_subdomain_of(self, other: "Name") -> bool:
        """True if this name equals ``other`` or lies beneath it."""
        n = len(other._folded)
        if n == 0:
            return True
        if n > len(self._folded):
            return False
        return self._folded[-n:] == other._folded

    def ancestors(self) -> Iterator["Name"]:
        """Yield this name, then each parent, ending with the root."""
        name = self
        while True:
            yield name
            if name.is_root():
                return
            name = name.parent()

    def split(self, depth: int) -> Tuple["Name", "Name"]:
        """Split into (prefix, suffix) where the suffix keeps ``depth`` labels."""
        if depth < 0 or depth > len(self._labels):
            raise NameError_(f"cannot keep {depth} labels of {self}")
        cut = len(self._labels) - depth
        return Name(self._labels[:cut]), Name(self._labels[cut:])

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Name):
            return NotImplemented
        return self._folded == other._folded

    def __lt__(self, other: "Name") -> bool:
        return self._folded[::-1] < other._folded[::-1]

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Name({self.to_text()!r})"


ROOT = Name(())
