"""Every catalog entry must verify green end to end.

``golden/gallery/<id>.json`` holds the output of
``plasti gallery <id> --verify --json``; verdicts, witnesses and report
text must stay byte-identical to it. The gallery output reports an
unknown verdict without the candidates behind it, so
``golden/falsifications.json`` pins each candidate's outcome, by name,
for the entries whose family has a witness or an error to report.
"""

import json
from pathlib import Path

import pytest

from plasti.classify import run_falsifications
from plasti.cli import main
from plasti.errors import UnknownGalleryId
from plasti.gallery import GALLERY_IDS, gallery_entry
from plasti.maps import MapDescription, eval_map
from plasti.parser import parse_map, parse_space


EXPECTED_IDS = {
    "example1",
    "example2",
    "example310",
    "prop31",
    "prop313",
    "prop314-open",
    "rem316-halfopen",
    "rem317-mixed",
    "integers",
    "r-minus-z",
    "unit-interval-grid",
}


def test_catalog_lists_the_expected_entries():
    assert set(GALLERY_IDS) == EXPECTED_IDS


GOLDEN = Path(__file__).parent / "golden" / "gallery"


@pytest.mark.parametrize("entry_id", sorted(EXPECTED_IDS))
def test_entry_verifies(entry_id, capsys):
    code = main(["gallery", entry_id, "--verify", "--json"])
    out = capsys.readouterr().out
    failed = [r for r in json.loads(out)["expectations"] if not r["passed"]]
    assert code == 0 and not failed, f"{entry_id} failed: {failed}"
    assert out.encode() == (GOLDEN / f"{entry_id}.json").read_bytes()


FALSIFIED = ("example1", "integers", "example310", "r-minus-z", "prop314-open")


@pytest.mark.parametrize("entry_id", FALSIFIED)
def test_falsification_outcomes_match_the_golden(entry_id):
    entry = gallery_entry(entry_id)
    attempts = run_falsifications(entry.space, entry.window)
    golden = json.loads((GOLDEN.parent / "falsifications.json").read_text())
    assert [[a.name, a.outcome] for a in attempts] == golden[entry_id]


def test_unknown_id_raises():
    with pytest.raises(UnknownGalleryId):
        gallery_entry("no-such-entry")
    entry = gallery_entry("example1")
    with pytest.raises(UnknownGalleryId):
        entry.map_named("no-such-map")


def test_every_entry_has_a_summary_and_window():
    for entry_id in GALLERY_IDS:
        entry = gallery_entry(entry_id)
        assert entry.summary
        assert entry.window.lo < entry.window.hi
        for name, _desc in entry.maps:
            assert isinstance(entry.map_named(name), MapDescription)


def test_gallery_references_resolve_in_map_files():
    mp = parse_map("gallery: unit-interval-grid:flip\n")
    assert mp == gallery_entry("unit-interval-grid").map_named("flip")
    space = parse_space("points: 0 1/6 1/3 1/2 2/3 5/6 1\n")
    from fractions import Fraction as F

    assert eval_map(mp, space, F(0)) == F(1)
    assert eval_map(mp, space, F(1, 3)) == F(2, 3)


def test_bare_gallery_reference_needs_a_unique_map():
    [(_, only)] = gallery_entry("example2").maps
    assert parse_map("gallery: example2\n") == only
    with pytest.raises(UnknownGalleryId):
        parse_map("gallery: unit-interval-grid\n")
    with pytest.raises(UnknownGalleryId):
        parse_map("gallery: integers\n")


def test_unknown_gallery_reference_raises():
    with pytest.raises(UnknownGalleryId):
        parse_map("gallery: example1:no-such-map\n")
    with pytest.raises(UnknownGalleryId):
        parse_map("gallery: missing-entry\n")
