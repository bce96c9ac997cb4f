"""The software policy module (Sec. 4.2).

The paper's worked example: *"any software from trusted vendors should be
allowed, while other software only is allowed if it has a rating over
7.5/10 and does not show any advertisements."*

A :class:`Policy` is an ordered list of rules evaluated against
:class:`SoftwareFacts` — the information the reputation system can supply
about a pending execution (published score, vote count, vendor score,
signature verification result, community-reported behaviours).  Each rule
answers ALLOW, DENY, or ABSTAIN; the first non-abstaining rule decides,
and the policy's *default* (usually ASK, falling back to the interactive
prompt) covers the rest.  This mirrors how the enhanced white-listing
layer "could considerably lower the need for user interaction".
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from ..crypto.signatures import VerificationResult
from ..errors import PolicyError
from .ratings import MAX_SCORE, MIN_SCORE

#: Shared empty default for behavior sets (B008: no calls in defaults).
_NO_BEHAVIORS: frozenset = frozenset()


class PolicyVerdict(Enum):
    """What the policy engine tells the client to do."""

    ALLOW = "allow"
    DENY = "deny"
    ASK = "ask"  # fall back to the interactive dialog


@dataclass(frozen=True)
class SoftwareFacts:
    """Everything the policy engine may condition on.

    Ground-truth simulation fields are deliberately absent: policies see
    only what the deployed system would know.
    """

    software_id: str
    file_name: str
    vendor: Optional[str] = None
    signature_status: VerificationResult = VerificationResult.UNSIGNED
    score: Optional[float] = None
    vote_count: int = 0
    vendor_score: Optional[float] = None
    reported_behaviors: frozenset = frozenset()

    @property
    def is_rated(self) -> bool:
        return self.score is not None

    @property
    def is_signed_by_trusted_vendor(self) -> bool:
        return self.signature_status.is_trusted


@dataclass(frozen=True)
class PolicyDecision:
    """The outcome of evaluating a policy for one execution."""

    verdict: PolicyVerdict
    rule_name: Optional[str]
    reason: str


class PolicyRule:
    """Base class for policy rules; subclasses implement :meth:`evaluate`."""

    name = "rule"

    def evaluate(self, facts: SoftwareFacts) -> Optional[PolicyVerdict]:
        """Return a verdict, or ``None`` to abstain."""
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable summary for the preference UI."""
        return self.name


@dataclass(frozen=True)
class TrustedSignerRule(PolicyRule):
    """Allow executables whose signature verifies against the trust store.

    The Sec. 4.2 enhanced white list: "determine if it has been digitally
    signed by a trusted vendor e.g., Microsoft or Adobe. In case the
    certificate is present and valid, the file is automatically allowed."
    """

    name = "trusted-signer"

    def evaluate(self, facts: SoftwareFacts) -> Optional[PolicyVerdict]:
        if facts.is_signed_by_trusted_vendor:
            return PolicyVerdict.ALLOW
        return None

    def describe(self) -> str:
        return "allow software with a valid signature from a trusted vendor"


@dataclass(frozen=True)
class MinimumRatingRule(PolicyRule):
    """Allow software rated at or above a threshold (with enough votes)."""

    threshold: float = 7.5
    min_votes: int = 1
    name = "minimum-rating"

    def __post_init__(self):
        if not (MIN_SCORE <= self.threshold <= MAX_SCORE):
            raise PolicyError(
                f"rating threshold {self.threshold} outside "
                f"[{MIN_SCORE}, {MAX_SCORE}]"
            )
        if self.min_votes < 1:
            raise PolicyError("min_votes must be at least 1")

    def evaluate(self, facts: SoftwareFacts) -> Optional[PolicyVerdict]:
        if facts.score is None or facts.vote_count < self.min_votes:
            return None
        if facts.score > self.threshold:
            return PolicyVerdict.ALLOW
        return None

    def describe(self) -> str:
        return (
            f"allow software rated above {self.threshold}/10 "
            f"(at least {self.min_votes} votes)"
        )


@dataclass(frozen=True)
class MaximumRatingDenyRule(PolicyRule):
    """Deny software rated at or below a threshold — community-flagged PIS."""

    threshold: float = 3.0
    min_votes: int = 3
    name = "low-rating-deny"

    def evaluate(self, facts: SoftwareFacts) -> Optional[PolicyVerdict]:
        if facts.score is None or facts.vote_count < self.min_votes:
            return None
        if facts.score <= self.threshold:
            return PolicyVerdict.DENY
        return None

    def describe(self) -> str:
        return (
            f"deny software rated {self.threshold}/10 or lower "
            f"(at least {self.min_votes} votes)"
        )


@dataclass(frozen=True)
class ForbiddenBehaviorRule(PolicyRule):
    """Deny software the community reports as exhibiting given behaviours.

    The paper's example policy forbids pop-up advertisements; any set of
    :class:`~repro.winsim.behaviors.Behavior` values can be listed.
    """

    forbidden: frozenset = frozenset()
    name = "forbidden-behavior"

    def __post_init__(self):
        if not self.forbidden:
            raise PolicyError("forbidden behaviour set cannot be empty")

    def evaluate(self, facts: SoftwareFacts) -> Optional[PolicyVerdict]:
        if facts.reported_behaviors & self.forbidden:
            return PolicyVerdict.DENY
        return None

    def describe(self) -> str:
        names = ", ".join(sorted(behavior.value for behavior in self.forbidden))
        return f"deny software reported to: {names}"


@dataclass(frozen=True)
class VendorRatingRule(PolicyRule):
    """Allow software from vendors whose derived rating clears a threshold.

    Sec. 3.3's countermeasure to per-file fingerprint churn: "base his
    decision on ... the derived total rating of the software developing
    company".
    """

    threshold: float = 7.5
    name = "vendor-rating"

    def evaluate(self, facts: SoftwareFacts) -> Optional[PolicyVerdict]:
        if facts.vendor_score is None:
            return None
        if facts.vendor_score > self.threshold:
            return PolicyVerdict.ALLOW
        return None

    def describe(self) -> str:
        return f"allow software from vendors rated above {self.threshold}/10"


@dataclass(frozen=True)
class VendorRatingDenyRule(PolicyRule):
    """Deny software from vendors whose derived rating is poor.

    The enforcement half of Sec. 3.3's vendor-level countermeasure: a
    fresh fingerprint from a vendor whose catalogue averages 2/10 is
    stopped even though the file itself has no votes yet.
    """

    threshold: float = 3.5
    name = "vendor-rating-deny"

    def evaluate(self, facts: SoftwareFacts) -> Optional[PolicyVerdict]:
        if facts.vendor_score is None:
            return None
        if facts.vendor_score <= self.threshold:
            return PolicyVerdict.DENY
        return None

    def describe(self) -> str:
        return f"deny software from vendors rated {self.threshold}/10 or lower"


@dataclass(frozen=True)
class UnsignedUnknownRule(PolicyRule):
    """Deny unsigned software the community has never rated.

    A strict corporate profile: with no signature and no reputation there
    is nothing to base consent on.  Also catches the Sec. 3.3 signal of
    vendors stripping their company name.
    """

    require_vendor_name: bool = True
    name = "unsigned-unknown"

    def evaluate(self, facts: SoftwareFacts) -> Optional[PolicyVerdict]:
        unsigned = not facts.is_signed_by_trusted_vendor
        unrated = facts.score is None
        nameless = facts.vendor is None and self.require_vendor_name
        if unsigned and unrated and nameless:
            return PolicyVerdict.DENY
        return None

    def describe(self) -> str:
        return "deny unsigned, unrated software with no vendor name"


class Policy:
    """An ordered rule list with a default verdict.

    >>> policy = Policy.paper_example()
    >>> policy.evaluate(facts).verdict
    <PolicyVerdict.ALLOW: 'allow'>
    """

    def __init__(
        self,
        rules: list,
        default: PolicyVerdict = PolicyVerdict.ASK,
        name: str = "custom",
    ):
        self.rules = list(rules)
        self.default = default
        self.name = name

    def evaluate(self, facts: SoftwareFacts) -> PolicyDecision:
        """Run the rules in order; first non-abstention wins."""
        for rule in self.rules:
            verdict = rule.evaluate(facts)
            if verdict is None:
                continue
            return PolicyDecision(
                verdict=verdict,
                rule_name=rule.name,
                reason=rule.describe(),
            )
        return PolicyDecision(
            verdict=self.default,
            rule_name=None,
            reason=f"no rule matched; policy default is {self.default.value}",
        )

    def describe(self) -> list:
        """The rule descriptions, in evaluation order."""
        return [rule.describe() for rule in self.rules]

    @staticmethod
    def paper_example(forbidden_behaviors: frozenset = _NO_BEHAVIORS) -> "Policy":
        """The exact policy from Sec. 4.2.

        "any software from trusted vendors should be allowed, while other
        software only is allowed if it has a rating over 7.5/10 and does
        not show any advertisements".  *forbidden_behaviors* should carry
        ``Behavior.DISPLAYS_ADS`` (passed in by the caller to keep this
        module independent of :mod:`repro.winsim`).
        """
        rules: list = [TrustedSignerRule()]
        if forbidden_behaviors:
            rules.append(ForbiddenBehaviorRule(forbidden=forbidden_behaviors))
        rules.append(MinimumRatingRule(threshold=7.5))
        return Policy(rules, default=PolicyVerdict.ASK, name="paper-example")
