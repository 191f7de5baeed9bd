import pytest

from cuspidal import catalog


def test_entries_are_built_on_demand(monkeypatch):
    # the VdGZ power sums are expanded only for a VdGZ entry
    def refuse():
        raise AssertionError("VdGZ surface built")

    monkeypatch.setattr(catalog, "_ENTRIES", {})
    monkeypatch.setattr(catalog, "_vdgz_quintic", refuse)
    monkeypatch.setattr(catalog, "_vdgz_quartic", refuse)
    assert catalog.names() == [
        "new_quartic",
        "new_quintic",
        "vdgz_quartic",
        "vdgz_quintic",
    ]
    entry = catalog.get("new_quintic")
    assert entry.name == "new_quintic" and entry.companion == "new_quartic"
    assert entry.poly == catalog.XYZW.parse(catalog.NEW_QUINTIC_TEXT)
    assert catalog.get("new_quintic") is entry
    with pytest.raises(AssertionError, match="VdGZ"):
        catalog.get("vdgz_quintic")


def test_unknown_name():
    with pytest.raises(KeyError, match="nonsense"):
        catalog.get("nonsense")
