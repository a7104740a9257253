"""CAIDA-style AS classification dataset (section 5.1, rule 3).

The paper filters candidate cellular ASes using CAIDA's AS
classification, dropping ASes labeled ``Content`` or with no known
class.  We derive an equivalent dataset from the generated topology,
with realistic imperfections: a fraction of ASes is unclassified and a
small fraction is mislabeled, so the filtering heuristic is exercised
against noisy metadata exactly as in the real pipeline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.net.asn import CAIDA_CLASS_OF_TYPE, CAIDAClass

if TYPE_CHECKING:
    from repro.world.build import World

#: Fraction of ASes missing from the classification.
_UNKNOWN_RATE = 0.06
#: Fraction of classified ASes carrying a wrong label.
_MISLABEL_RATE = 0.015


class ASClassificationDataset:
    """Map from ASN to :class:`~repro.net.asn.CAIDAClass`."""

    def __init__(self, classes: Dict[int, CAIDAClass]) -> None:
        self._classes = dict(classes)

    def __len__(self) -> int:
        return len(self._classes)

    def __contains__(self, asn: int) -> bool:
        return asn in self._classes

    def class_of(self, asn: int) -> CAIDAClass:
        """Class of an ASN; unlisted ASNs are UNKNOWN."""
        return self._classes.get(asn, CAIDAClass.UNKNOWN)

    def is_access(self, asn: int) -> bool:
        """True when the AS passes filtering rule 3 (Transit/Access)."""
        return self.class_of(asn) is CAIDAClass.TRANSIT_ACCESS

    def counts(self) -> Dict[CAIDAClass, int]:
        """Number of ASes per class (UNKNOWN only counts listed ones)."""
        result: Dict[CAIDAClass, int] = {}
        for value in self._classes.values():
            result[value] = result.get(value, 0) + 1
        return result

    @classmethod
    def from_world(
        cls,
        world: World,
        unknown_rate: float = _UNKNOWN_RATE,
        mislabel_rate: float = _MISLABEL_RATE,
        seed_salt: str = "caida",
    ) -> "ASClassificationDataset":
        """Derive the dataset from a world's topology, with noise.

        Cellular carriers are never dropped to UNKNOWN or mislabeled as
        Content here -- real MNOs are reliably classified Transit/Access
        by CAIDA; the noise lands on the long tail.
        """
        if not 0 <= unknown_rate < 1 or not 0 <= mislabel_rate < 1:
            raise ValueError("rates must be in [0, 1)")
        rng = world.rng(seed_salt)
        classes: Dict[int, CAIDAClass] = {}
        alternatives = [
            CAIDAClass.TRANSIT_ACCESS,
            CAIDAClass.CONTENT,
            CAIDAClass.ENTERPRISE,
        ]
        for record in world.topology.registry:
            true_class = CAIDA_CLASS_OF_TYPE[record.as_type]
            if record.is_cellular:
                classes[record.asn] = true_class
                continue
            roll = rng.random()
            if roll < unknown_rate:
                continue  # absent from the dataset
            if roll < unknown_rate + mislabel_rate:
                wrong = [value for value in alternatives if value is not true_class]
                classes[record.asn] = rng.choice(wrong)
            else:
                classes[record.asn] = true_class
        return cls(classes)
