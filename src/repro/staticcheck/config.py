"""Configuration for the invariant linter.

Settings live in ``[tool.repro-staticcheck]`` of ``pyproject.toml``;
everything has a default so the tool also runs config-free.  Keys (all
optional, all lists of strings):

``select``
    Rule IDs to run; empty means every registered rule.
``ignore``
    Rule IDs to drop after selection.
``exclude``
    Posix-path fragments; files whose path contains one are skipped.
``determinism-allow``
    Path fragments where RS001's wall-clock/entropy sources are legal
    (the out-of-band observability layer).
``test-paths``
    Path fragments treated as test code (RS001/RS005 relax there:
    tests may pin constant seeds and call ``hash()`` freely).

Parsing uses :mod:`tomllib` when available (Python 3.11+); on older
interpreters the defaults apply and an explicit ``--config`` is
rejected, which keeps the package zero-dependency on every supported
version.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

try:  # Python 3.11+
    import tomllib
except ImportError:  # pragma: no cover - exercised only on <3.11
    tomllib = None  # type: ignore[assignment]

#: RS001 time/entropy sources are allowed here: ``repro.obs`` is strictly
#: out-of-band.
DEFAULT_DETERMINISM_ALLOW: Tuple[str, ...] = ("obs/",)

#: Paths treated as test code (constant seeds and ``hash()`` are fine).
DEFAULT_TEST_PATHS: Tuple[str, ...] = ("tests/", "benchmarks/",
                                       "conftest.py", "/test_", "fixtures/")


@dataclass(frozen=True)
class Config:
    """Resolved linter configuration (immutable, hashable)."""

    select: Tuple[str, ...] = ()
    ignore: Tuple[str, ...] = ()
    exclude: Tuple[str, ...] = ()
    determinism_allow: Tuple[str, ...] = DEFAULT_DETERMINISM_ALLOW
    test_paths: Tuple[str, ...] = DEFAULT_TEST_PATHS
    source: Optional[str] = field(default=None, compare=False)

    def is_excluded(self, posix_path: str) -> bool:
        return any(frag in posix_path for frag in self.exclude)

    def is_test_path(self, posix_path: str) -> bool:
        name = posix_path.rsplit("/", 1)[-1]
        return (name.startswith("test_")
                or any(frag in posix_path for frag in self.test_paths))

    def allows_clock(self, posix_path: str) -> bool:
        """True when RS001's time/entropy sources are legal in this file."""
        return any(frag in posix_path for frag in self.determinism_allow)


def _tuple_of_str(section: Dict[str, Any], key: str,
                  default: Tuple[str, ...]) -> Tuple[str, ...]:
    value = section.get(key)
    if value is None:
        return default
    if not isinstance(value, list) or not all(isinstance(v, str)
                                              for v in value):
        raise ValueError(f"[tool.repro-staticcheck] {key} must be a "
                         f"list of strings, got {value!r}")
    return tuple(value)


def config_from_mapping(section: Dict[str, Any],
                        source: Optional[str] = None) -> Config:
    """Build a :class:`Config` from a parsed TOML section."""
    known = {"select", "ignore", "exclude", "determinism-allow",
             "test-paths"}
    unknown = sorted(set(section) - known)
    if unknown:
        raise ValueError(f"unknown [tool.repro-staticcheck] keys: "
                         f"{', '.join(unknown)}")
    return Config(
        select=_tuple_of_str(section, "select", ()),
        ignore=_tuple_of_str(section, "ignore", ()),
        exclude=_tuple_of_str(section, "exclude", ()),
        determinism_allow=_tuple_of_str(section, "determinism-allow",
                                        DEFAULT_DETERMINISM_ALLOW),
        test_paths=_tuple_of_str(section, "test-paths", DEFAULT_TEST_PATHS),
        source=source,
    )


def find_pyproject(start: Path) -> Optional[Path]:
    """The nearest ``pyproject.toml`` at or above ``start``."""
    here = start if start.is_dir() else start.parent
    for candidate in (here, *here.parents):
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None


def load_config(start: Optional[Path] = None,
                explicit: Optional[Path] = None) -> Config:
    """Load config from ``explicit`` or the nearest ``pyproject.toml``.

    Returns the defaults when no file (or no ``[tool.repro-staticcheck]``
    section) is found, or when :mod:`tomllib` is unavailable and no
    explicit path was demanded.
    """
    pyproject = explicit or find_pyproject(start or Path.cwd())
    if pyproject is None:
        return Config()
    if tomllib is None:  # pragma: no cover - exercised only on <3.11
        if explicit is not None:
            raise RuntimeError("--config requires Python 3.11+ (tomllib)")
        return Config()
    with open(pyproject, "rb") as handle:
        data = tomllib.load(handle)
    section = data.get("tool", {}).get("repro-staticcheck")
    if section is None:
        return Config(source=str(pyproject))
    return config_from_mapping(section, source=str(pyproject))
