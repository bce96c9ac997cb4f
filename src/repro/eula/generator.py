"""EULA generation.

Licence text is assembled from boilerplate paragraphs plus one
*disclosure sentence* per behaviour the vendor chooses to admit.  The
consent level controls the style:

* **HIGH** — every behaviour disclosed in plain words, near the top of a
  short document;
* **MEDIUM** — behaviours disclosed, but in legalese euphemisms, buried
  deep in thousands of words of boilerplate (the grey-zone signature);
* **LOW** — behaviours simply not mentioned, whatever the document says.

Generation is deterministic per (executable content, style), so the same
program always ships the same licence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

from ..core.taxonomy import ConsentLevel
from ..winsim import Behavior, Executable

#: Plain-language disclosure per behaviour (HIGH-consent style).
PLAIN_DISCLOSURES: dict = {
    Behavior.DISPLAYS_ADS: "This software displays advertisements while it runs.",
    Behavior.REGISTERS_STARTUP: "This software starts automatically with your computer.",
    Behavior.CHANGES_HOMEPAGE: "This software changes your browser home page.",
    Behavior.TRACKS_BROWSING: "This software records the websites you visit.",
    Behavior.SENDS_USAGE_PROFILE: "This software sends your usage profile to our servers.",
    Behavior.NO_UNINSTALLER: "This software does not include an uninstall program.",
    Behavior.BUNDLES_SOFTWARE: "This software installs additional third-party programs.",
    Behavior.DEGRADES_PERFORMANCE: "This software may slow down your computer.",
    Behavior.KEYLOGGING: "This software records your keystrokes.",
    Behavior.STEALS_CREDENTIALS: "This software collects account passwords.",
    Behavior.REMOTE_CONTROL: "This software allows remote control of your computer.",
    Behavior.SELF_REPLICATES: "This software copies itself to other locations.",
    Behavior.DISABLES_SECURITY: "This software disables security products.",
}

#: Legalese euphemism per behaviour (MEDIUM-consent style).
LEGALESE_DISCLOSURES: dict = {
    Behavior.DISPLAYS_ADS: (
        "Licensee acknowledges that the Software may from time to time "
        "present sponsored informational content supplied by Licensor's "
        "commercial partners."
    ),
    Behavior.REGISTERS_STARTUP: (
        "The Software may configure itself to initialise concurrently "
        "with the operating environment to ensure optimal service."
    ),
    Behavior.CHANGES_HOMEPAGE: (
        "Licensee consents to reasonable adjustments of browser "
        "configuration parameters in furtherance of the service."
    ),
    Behavior.TRACKS_BROWSING: (
        "Licensee consents to the collection of navigational telemetry, "
        "including resource identifiers accessed via the Licensee's "
        "user agent, for service-improvement purposes."
    ),
    Behavior.SENDS_USAGE_PROFILE: (
        "Aggregated and individual interaction metrics may be conveyed "
        "to Licensor and its affiliates for analytical processing."
    ),
    Behavior.NO_UNINSTALLER: (
        "Removal of the Software outside Licensor-approved procedures "
        "is unsupported and may be unavailable."
    ),
    Behavior.BUNDLES_SOFTWARE: (
        "The installation process may provision supplementary value-"
        "added components from Licensor's distribution partners."
    ),
    Behavior.DEGRADES_PERFORMANCE: (
        "System resource utilisation may vary during the provision of "
        "the service."
    ),
    Behavior.KEYLOGGING: (
        "Input-stream diagnostics may be captured to the extent "
        "necessary for quality assurance."
    ),
    Behavior.STEALS_CREDENTIALS: (
        "Authentication material may be processed in the course of "
        "session facilitation."
    ),
    Behavior.REMOTE_CONTROL: (
        "Licensor may initiate maintenance sessions with elevated "
        "privileges as operationally required."
    ),
    Behavior.SELF_REPLICATES: (
        "The Software may provision redundant instances of itself for "
        "availability purposes."
    ),
    Behavior.DISABLES_SECURITY: (
        "The Software may adjust conflicting third-party components to "
        "preserve interoperability."
    ),
}

_BOILERPLATE = (
    "This agreement constitutes the entire understanding between the "
    "parties with respect to the subject matter hereof and supersedes "
    "all prior or contemporaneous understandings.",
    "Licensor grants Licensee a limited, non-exclusive, non-transferable, "
    "revocable licence to use the Software strictly in accordance with "
    "the terms herein.",
    "The Software is provided on an as-is and as-available basis without "
    "warranties of any kind, whether express, implied, statutory or "
    "otherwise, including without limitation warranties of "
    "merchantability and fitness for a particular purpose.",
    "In no event shall Licensor be liable for any indirect, incidental, "
    "special, consequential or punitive damages arising out of or "
    "related to the use of or inability to use the Software.",
    "Licensee shall not reverse engineer, decompile, disassemble or "
    "otherwise attempt to derive the source code of the Software except "
    "to the extent expressly permitted by applicable law.",
    "Licensor reserves the right to modify the terms of this agreement "
    "at any time, and continued use of the Software constitutes "
    "acceptance of any such modifications.",
    "If any provision of this agreement is held to be unenforceable, "
    "the remaining provisions shall continue in full force and effect.",
    "This agreement shall be governed by and construed in accordance "
    "with the laws of the jurisdiction of Licensor's principal place of "
    "business, without regard to conflict-of-law principles.",
)


@dataclass(frozen=True)
class EulaDocument:
    """Generated licence text plus generation metadata."""

    text: str
    disclosed_behaviors: frozenset
    style: ConsentLevel

    @property
    def word_count(self) -> int:
        return len(self.text.split())


class EulaGenerator:
    """Deterministic licence generation per executable + consent style."""

    def __init__(
        self,
        medium_target_words: int = 5500,
        high_target_words: int = 400,
    ):
        self.medium_target_words = medium_target_words
        self.high_target_words = high_target_words

    def generate(self, executable: Executable) -> EulaDocument:
        """Build the licence for *executable* in its consent style."""
        rng = random.Random(executable.software_id)
        style = executable.consent
        behaviors = set(executable.behaviors)
        if executable.bundled:
            behaviors.add(Behavior.BUNDLES_SOFTWARE)
        if style is ConsentLevel.HIGH:
            return self._high_consent(executable, behaviors, rng)
        if style is ConsentLevel.MEDIUM:
            return self._medium_consent(executable, behaviors, rng)
        return self._low_consent(executable, rng)

    def _high_consent(self, executable, behaviors, rng) -> EulaDocument:
        paragraphs = [
            f"Licence agreement for {executable.file_name}.",
            "Plain-language summary of what this software does:",
        ]
        for behavior in sorted(behaviors, key=lambda b: b.value):
            paragraphs.append(PLAIN_DISCLOSURES[behavior])
        if not behaviors:
            paragraphs.append(
                "This software does not collect data, display "
                "advertisements, or change system settings."
            )
        while _word_count(paragraphs) < self.high_target_words:
            paragraphs.append(rng.choice(_BOILERPLATE))
        return EulaDocument(
            text="\n\n".join(paragraphs),
            disclosed_behaviors=frozenset(behaviors),
            style=ConsentLevel.HIGH,
        )

    def _medium_consent(self, executable, behaviors, rng) -> EulaDocument:
        paragraphs = [
            f"END USER LICENSE AGREEMENT — {executable.file_name.upper()}",
        ]
        # Pad heavily *before* the disclosures so they land deep in the
        # document, then keep padding after.
        while _word_count(paragraphs) < self.medium_target_words * 0.6:
            paragraphs.append(rng.choice(_BOILERPLATE))
        for behavior in sorted(behaviors, key=lambda b: b.value):
            paragraphs.append(LEGALESE_DISCLOSURES[behavior])
            paragraphs.append(rng.choice(_BOILERPLATE))
        while _word_count(paragraphs) < self.medium_target_words:
            paragraphs.append(rng.choice(_BOILERPLATE))
        return EulaDocument(
            text="\n\n".join(paragraphs),
            disclosed_behaviors=frozenset(behaviors),
            style=ConsentLevel.MEDIUM,
        )

    def _low_consent(self, executable, rng) -> EulaDocument:
        paragraphs = [f"Licence agreement for {executable.file_name}."]
        for __ in range(rng.randint(0, 3)):
            paragraphs.append(rng.choice(_BOILERPLATE))
        return EulaDocument(
            text="\n\n".join(paragraphs),
            disclosed_behaviors=frozenset(),
            style=ConsentLevel.LOW,
        )


def _word_count(paragraphs: Iterable[str]) -> int:
    return sum(len(paragraph.split()) for paragraph in paragraphs)


_DEFAULT_GENERATOR = EulaGenerator()


def generate_eula(executable: Executable) -> EulaDocument:
    """Module-level convenience using the default generator."""
    return _DEFAULT_GENERATOR.generate(executable)
