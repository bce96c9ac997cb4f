"""The preference module (Sec. 4.2).

*"A solution like this implies that the reputation system also includes
a preference module that holds the users' software preferences that
should be enforced."*

:class:`UserPreferences` is the user-facing knob set — the things a
preference dialog would show — and :meth:`UserPreferences.compile`
lowers it into an ordered :class:`~repro.core.policy.Policy`.  Keeping
preferences declarative (rather than hand-building rule lists) is what
lets them be stored, synced, and audited per user or per fleet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import PolicyError
from .policy import (
    ForbiddenBehaviorRule,
    MaximumRatingDenyRule,
    MinimumRatingRule,
    Policy,
    PolicyVerdict,
    TrustedSignerRule,
    UnsignedUnknownRule,
    VendorRatingRule,
)
from .ratings import MAX_SCORE, MIN_SCORE


@dataclass(frozen=True)
class UserPreferences:
    """Declarative software preferences, compiled into a policy.

    The defaults reproduce the paper's worked example when
    ``forbidden_behaviors`` carries ``Behavior.DISPLAYS_ADS``.
    """

    #: Auto-allow valid signatures from locally trusted vendors.
    trust_signed_vendors: bool = True
    #: Auto-allow software rated strictly above this (None disables).
    minimum_rating: Optional[float] = 7.5
    #: Votes required before a rating-based auto-allow fires.
    minimum_votes: int = 1
    #: Auto-deny software rated at or below this (None disables).
    block_rating_below: Optional[float] = None
    #: Votes required before a rating-based auto-deny fires.
    block_votes: int = 3
    #: Auto-deny software reported to exhibit these behaviours.
    forbidden_behaviors: frozenset = frozenset()
    #: Also trust vendors whose *derived* rating clears minimum_rating.
    use_vendor_ratings: bool = False
    #: Auto-deny unsigned, unrated software with no vendor name.
    block_nameless_unknown: bool = False
    #: What happens when no rule fires: ASK (home) or DENY (locked-down).
    default: PolicyVerdict = PolicyVerdict.ASK

    def __post_init__(self):
        for threshold, label in (
            (self.minimum_rating, "minimum_rating"),
            (self.block_rating_below, "block_rating_below"),
        ):
            if threshold is not None and not (
                MIN_SCORE <= threshold <= MAX_SCORE
            ):
                raise PolicyError(
                    f"{label} {threshold} outside [{MIN_SCORE}, {MAX_SCORE}]"
                )
        if (
            self.minimum_rating is not None
            and self.block_rating_below is not None
            and self.block_rating_below >= self.minimum_rating
        ):
            raise PolicyError(
                "block_rating_below must stay under minimum_rating"
            )
        if self.default is PolicyVerdict.ALLOW:
            raise PolicyError(
                "a default of ALLOW would run anything unrated; "
                "use ASK or DENY"
            )

    def compile(self, name: str = "preferences") -> Policy:
        """Lower the preferences into an ordered rule list.

        Order matters and is fixed by severity: denials that indicate
        active harm run before any allow, so a signed-but-community-
        flagged program is still stopped by its behaviour report.
        """
        rules: list = []
        if self.forbidden_behaviors:
            rules.append(
                ForbiddenBehaviorRule(forbidden=self.forbidden_behaviors)
            )
        if self.block_rating_below is not None:
            rules.append(
                MaximumRatingDenyRule(
                    threshold=self.block_rating_below,
                    min_votes=self.block_votes,
                )
            )
        if self.trust_signed_vendors:
            rules.append(TrustedSignerRule())
        if self.minimum_rating is not None:
            rules.append(
                MinimumRatingRule(
                    threshold=self.minimum_rating,
                    min_votes=self.minimum_votes,
                )
            )
            if self.use_vendor_ratings:
                rules.append(VendorRatingRule(threshold=self.minimum_rating))
        if self.block_nameless_unknown:
            rules.append(UnsignedUnknownRule())
        return Policy(rules, default=self.default, name=name)

    @staticmethod
    def paper_example(forbidden_behaviors: frozenset) -> "UserPreferences":
        """The Sec. 4.2 worked example as preferences."""
        return UserPreferences(
            trust_signed_vendors=True,
            minimum_rating=7.5,
            forbidden_behaviors=forbidden_behaviors,
        )

    @staticmethod
    def locked_down() -> "UserPreferences":
        """A corporate lock-down profile: nothing unknown ever runs."""
        return UserPreferences(
            trust_signed_vendors=True,
            minimum_rating=7.0,
            minimum_votes=2,
            block_rating_below=4.0,
            block_nameless_unknown=True,
            default=PolicyVerdict.DENY,
        )
