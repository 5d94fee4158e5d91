"""Tests for domain names: parsing, algebra, comparisons."""

import pytest

from repro.dnslib import Name, NameError_, ROOT


class TestParsing:
    def test_from_text_basic(self):
        name = Name.from_text("www.example.com")
        assert name.to_text() == "www.example.com."

    def test_trailing_dot_equivalent(self):
        assert Name.from_text("a.b.") == Name.from_text("a.b")

    def test_root_from_dot(self):
        assert Name.from_text(".").is_root()

    def test_root_from_empty(self):
        assert Name.from_text("").is_root()

    def test_root_renders_as_dot(self):
        assert ROOT.to_text() == "."

    def test_case_preserved_in_text(self):
        assert Name.from_text("WwW.Example.COM").to_text() == "WwW.Example.COM."

    def test_non_ascii_rejected(self):
        with pytest.raises(NameError_):
            Name.from_text("exämple.com")

    def test_label_too_long_rejected(self):
        with pytest.raises(NameError_):
            Name.from_text("a" * 64 + ".com")

    def test_63_octet_label_accepted(self):
        name = Name.from_text("a" * 63 + ".com")
        assert len(name.labels[0]) == 63

    def test_name_too_long_rejected(self):
        labels = ".".join(["a" * 60] * 5)
        with pytest.raises(NameError_):
            Name.from_text(labels)

    def test_empty_label_rejected(self):
        with pytest.raises(NameError_):
            Name.from_text("a..b")


class TestComparison:
    def test_case_insensitive_equality(self):
        assert Name.from_text("WWW.Example.COM") == Name.from_text("www.example.com")

    def test_case_insensitive_hash(self):
        assert hash(Name.from_text("A.B")) == hash(Name.from_text("a.b"))

    def test_different_names_unequal(self):
        assert Name.from_text("a.example.com") != Name.from_text("b.example.com")

    def test_not_equal_to_string(self):
        assert Name.from_text("a.b") != "a.b."

    def test_ordering_by_reversed_labels(self):
        # DNS canonical order sorts by most-senior label first.
        a = Name.from_text("a.example.com")
        z = Name.from_text("z.example.com")
        assert a < z

    def test_usable_in_sets(self):
        s = {Name.from_text("a.b"), Name.from_text("A.B")}
        assert len(s) == 1


class TestAlgebra:
    def test_parent(self):
        assert Name.from_text("www.example.com").parent() == \
            Name.from_text("example.com")

    def test_parent_of_root_raises(self):
        with pytest.raises(NameError_):
            ROOT.parent()

    def test_child(self):
        assert Name.from_text("example.com").child("www") == \
            Name.from_text("www.example.com")

    def test_concatenate(self):
        left = Name.from_text("www")
        right = Name.from_text("example.com")
        assert left.concatenate(right) == Name.from_text("www.example.com")

    def test_is_subdomain_of_self(self):
        name = Name.from_text("example.com")
        assert name.is_subdomain_of(name)

    def test_is_subdomain_of_parent(self):
        assert Name.from_text("a.b.example.com").is_subdomain_of(
            Name.from_text("example.com"))

    def test_everything_is_subdomain_of_root(self):
        assert Name.from_text("x.y").is_subdomain_of(ROOT)

    def test_sibling_not_subdomain(self):
        assert not Name.from_text("a.example.com").is_subdomain_of(
            Name.from_text("b.example.com"))

    def test_suffix_label_boundary_respected(self):
        # "notexample.com" must not count as under "example.com".
        assert not Name.from_text("notexample.com").is_subdomain_of(
            Name.from_text("example.com"))

    def test_subdomain_case_insensitive(self):
        assert Name.from_text("A.EXAMPLE.COM").is_subdomain_of(
            Name.from_text("example.com"))

    def test_ancestors_chain(self):
        chain = list(Name.from_text("a.b.c").ancestors())
        assert [n.to_text() for n in chain] == ["a.b.c.", "b.c.", "c.", "."]

    def test_split(self):
        prefix, suffix = Name.from_text("www.example.com").split(2)
        assert suffix == Name.from_text("example.com")
        assert prefix == Name.from_text("www")

    def test_split_bad_depth(self):
        with pytest.raises(NameError_):
            Name.from_text("a.b").split(5)

    def test_len_is_label_count(self):
        assert len(Name.from_text("a.b.c")) == 3
        assert len(ROOT) == 0

    def test_iter_yields_labels(self):
        assert list(Name.from_text("a.b")) == [b"a", b"b"]
