"""The seed-band table, and byte-identity pins for the generated scripts.

``generate(seed)`` is pure data, so its output can be pinned exactly: one
SHA-256 digest per hundred-seed band over seeds 0-699, and one over the
nightly sweep's first 200 seeds (10000-10199).  Any change to a draw, to
the draw order, or to which band a seed lands in moves a digest.

The digest is taken over a canonical JSON that does not depend on
``PYTHONHASHSEED``: dataclasses are written field by field under their
type name with sorted keys, and frozensets are written sorted.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any

import pytest

from repro.testkit.bands import BANDS, BY_NAME, band_for
from repro.testkit.runner import generate
from repro.testkit.topology import _INTERCHANGE
from repro.testkit.workload import KINDS

#: Seed range -> digest of its scripts.  A digest that moves means some
#: seed's scripts changed: re-pin only for a deliberate draw change.
PINS = {
    (0, 100): "3d5a2c02862cb85bd5907482295c2aeafd46ec985149cc41771a8417e16bfc8a",
    (100, 200): "4018e4f526ad3da8e1699f3a6150a36522563c7c4923bb6e822d2274427e7841",
    (200, 300): "b2caf522619123cc32e1c844dd2bcad227f2cd18d9f44896c5b943edbdd56a16",
    (300, 400): "eaee548c60a4d294c5f5339ea3887e55f62a63c3a5c6193b3e29327fb1584c23",
    (400, 500): "409a7f915d5d0c563161709768d86224aad57469005d3df9c7f13a5fd4f6480e",
    (500, 600): "be99a43c499d6e9f5228959b0c85b3160ca9ac2ca257e98674304f6d36e1293b",
    (600, 700): "edab11723d8fa16882f79aa1d45904a2cca47fe337d2e2dadcd8b7befa04f54c",
    (10_000, 10_200): "8fac01d4ee69bbfc6a16b075930db4a52ab3362eca161789340112b77d41ffe5",
}


def canonical(value: Any) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            field.name: canonical(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
        return {"type": type(value).__name__, "fields": fields}
    if isinstance(value, dict):
        return {key: canonical(item) for key, item in value.items()}
    if isinstance(value, (frozenset, set)):
        items = [canonical(item) for item in value]
        return sorted(items, key=lambda item: json.dumps(item, sort_keys=True))
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    return value


def scripts_digest(seeds: range) -> str:
    digest = hashlib.sha256()
    for seed in seeds:
        spec, ops, faults = generate(seed)
        line = json.dumps(
            canonical({"seed": seed, "spec": spec, "ops": ops, "faults": faults}),
            sort_keys=True,
            separators=(",", ":"),
        )
        digest.update(line.encode("utf-8") + b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize(
    "bounds", sorted(PINS), ids=[f"seeds-{lo}-{hi - 1}" for lo, hi in sorted(PINS)]
)
def test_generated_scripts_match_pin(bounds: tuple[int, int]) -> None:
    assert scripts_digest(range(*bounds)) == PINS[bounds]


def test_band_table_tiles_the_seed_space() -> None:
    """Bands sit back to back from seed 0, each seed maps to exactly its
    row, and any seed past the table takes the default row."""
    assert len(BY_NAME) == len(BANDS)
    assert BANDS[0].seeds.start == 0
    for previous, band in zip(BANDS, BANDS[1:]):
        assert band.seeds.start == previous.seeds.stop
    for band in BANDS:
        assert band_for(band.seeds[0]) is band
        assert band_for(band.seeds[-1]) is band
        assert set(band.interchange) <= set(_INTERCHANGE)
        assert len(band.kinds) == len(KINDS)
    assert band_for(BANDS[-1].seeds.stop) is BY_NAME["default"]
    assert band_for(10_000) is BY_NAME["default"]
