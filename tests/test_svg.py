"""Chart rendering: determinism, well-formedness, degenerate inputs."""

import xml.dom.minidom
from pathlib import Path

import pytest

from hmn.svg import escape, render_svg

LABELS = ("title", "x", "y")  # chart title, x-axis label, y-axis label


def test_byte_identical_across_calls(tmp_path):
    series = [([0, 1, 2], [0.5, 0.7, 0.4]), ([0, 1, 2], [0.1, 0.2, 0.9])]
    a = render_svg(series, ["run a", "run b"], tmp_path / "a.svg",
                   title="t", xlabel="x", ylabel="y")
    b = render_svg(series, ["run a", "run b"], tmp_path / "b.svg",
                   title="t", xlabel="x", ylabel="y")
    assert a == b
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()


def test_return_value_matches_file(tmp_path):
    text = render_svg([([1, 2], [3, 4])], ["s"], tmp_path / "c.svg", *LABELS)
    assert (tmp_path / "c.svg").read_text() == text


def test_output_is_well_formed_xml(tmp_path):
    text = render_svg([([0, 5, 10], [1.0, -2.0, 3.5])], ["acc"],
                      tmp_path / "d.svg", title="curve", xlabel="epoch",
                      ylabel="value")
    doc = xml.dom.minidom.parseString(text)
    assert doc.documentElement.tagName == "svg"


def test_single_point_series_renders(tmp_path):
    # one point: no polyline, but a circle marker must appear
    text = render_svg([([3.0], [7.0])], ["only"], tmp_path / "e.svg", *LABELS)
    assert "<polyline" not in text
    assert "<circle" in text
    xml.dom.minidom.parseString(text)


def test_constant_series_expands_degenerate_range(tmp_path):
    # equal min and max on both axes still yields finite coordinates
    text = render_svg([([2.0, 2.0], [5.0, 5.0])], ["flat"], tmp_path / "f.svg", *LABELS)
    assert "nan" not in text and "inf" not in text
    xml.dom.minidom.parseString(text)


def test_title_markup_is_escaped(tmp_path):
    text = render_svg([([0, 1], [0, 1])], ["a<b"], tmp_path / "g.svg",
                      title="x < y & z", xlabel="x", ylabel="y")
    assert "x &lt; y &amp; z" in text
    assert "a&lt;b" in text
    xml.dom.minidom.parseString(text)


def test_escape_matches_the_standard_library():
    from xml.sax.saxutils import escape as sax_escape
    for text in ["a<b", "x < y & z", "&amp;", "<&>", ">>&<<", "plain", ""]:
        assert escape(text) == sax_escape(text)


def test_no_series_rejected(tmp_path):
    with pytest.raises(ValueError, match="no series"):
        render_svg([], [], tmp_path / "h.svg", *LABELS)


def test_length_mismatch_rejected(tmp_path):
    with pytest.raises(ValueError, match="lengths disagree"):
        render_svg([([1, 2], [1.0])], ["s"], tmp_path / "i.svg", *LABELS)


def test_empty_series_rejected(tmp_path):
    with pytest.raises(ValueError, match="empty series"):
        render_svg([([], [])], ["s"], tmp_path / "j.svg", *LABELS)


def test_label_count_mismatch_rejected(tmp_path):
    with pytest.raises(ValueError, match="one label per series"):
        render_svg([([1], [1])], ["a", "b"], tmp_path / "k.svg", *LABELS)


def test_many_series_cycle_colors(tmp_path):
    series = [([0, 1], [i, i + 1]) for i in range(10)]
    labels = [f"s{i}" for i in range(10)]
    text = render_svg(series, labels, tmp_path / "l.svg", *LABELS)
    # palette has 8 entries, so series 8 reuses the first color
    assert text.count('stroke="#1f77b4"') >= 2
    xml.dom.minidom.parseString(text)
