"""Data catalogs: the queryable face of a data pond.

A :class:`DataCatalog` is what a node *advertises* about its pond — never the
data itself.  It is rebuilt cheaply from the pond on demand and is the object
the AirDnD data model (Model 3) matches
:class:`~repro.core.models.DataDescription` requirements against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.data.datatypes import DataType
from repro.data.pond import DataPond
from repro.data.quality import DataQuality, meets_requirement, quality_score
from repro.geometry.vector import Vec2


@dataclass(frozen=True)
class DataCatalogEntry:
    """Advertised availability of one data type at one node."""

    data_type: DataType
    quality: DataQuality
    frame_count: int
    coverage_center: Optional[Vec2]

    def score(self) -> float:
        """Scalar quality score of this entry."""
        return quality_score(self.quality)


class DataCatalog:
    """All data types a node currently advertises."""

    def __init__(self, owner: str, entries: Optional[Dict[DataType, DataCatalogEntry]] = None) -> None:
        self.owner = owner
        self._entries: Dict[DataType, DataCatalogEntry] = dict(entries or {})

    @staticmethod
    def from_pond(pond: DataPond, now: float) -> "DataCatalog":
        """Build a catalog snapshot from a pond."""
        entries: Dict[DataType, DataCatalogEntry] = {}
        for data_type in pond.data_types():
            quality = pond.quality_of(data_type, now)
            if quality is None:
                continue
            entries[data_type] = DataCatalogEntry(
                data_type=data_type,
                quality=quality,
                frame_count=pond.frame_count(data_type),
                coverage_center=pond.coverage_center(data_type, now),
            )
        return DataCatalog(pond.owner, entries)

    # -------------------------------------------------------------- queries

    def __contains__(self, data_type: DataType) -> bool:
        return data_type in self._entries

    def entry(self, data_type: DataType) -> Optional[DataCatalogEntry]:
        """Catalog entry for ``data_type``, or ``None``."""
        return self._entries.get(data_type)

    def data_types(self) -> List[DataType]:
        """All advertised data types."""
        return list(self._entries)

    def satisfies(
        self,
        data_type: DataType,
        required_quality: DataQuality,
        region_center: Optional[Vec2] = None,
        region_radius: float = 0.0,
    ) -> bool:
        """Whether this catalog can serve a requirement.

        Quality must meet the requirement and, when a region is given, the
        advertised coverage (centred on ``coverage_center``) must reach the
        region's centre.
        """
        entry = self._entries.get(data_type)
        if entry is None:
            return False
        if not meets_requirement(entry.quality, required_quality):
            return False
        if region_center is not None and entry.coverage_center is not None:
            reach = entry.quality.coverage_radius_m
            distance = entry.coverage_center.distance_to(region_center)
            if distance > reach + region_radius:
                return False
        return True
