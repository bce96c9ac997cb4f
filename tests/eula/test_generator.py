"""EULA generation."""


from repro.core.taxonomy import ConsentLevel
from repro.eula import generate_eula
from repro.eula.generator import (
    EulaGenerator,
    LEGALESE_DISCLOSURES,
    PLAIN_DISCLOSURES,
)
from repro.winsim import Behavior, build_executable

_NO_BEHAVIORS: frozenset = frozenset()


def _exe(consent, behaviors=_NO_BEHAVIORS, bundled=()):
    return build_executable(
        "sample.exe", consent=consent, behaviors=behaviors, bundled=bundled
    )


class TestVocabulary:
    def test_every_behavior_has_both_phrasings(self):
        for behavior in Behavior:
            assert behavior in PLAIN_DISCLOSURES
            assert behavior in LEGALESE_DISCLOSURES

    def test_phrasings_differ(self):
        for behavior in Behavior:
            assert PLAIN_DISCLOSURES[behavior] != LEGALESE_DISCLOSURES[behavior]


class TestHighConsent:
    def test_short_and_plain(self):
        document = generate_eula(
            _exe(ConsentLevel.HIGH, frozenset({Behavior.DISPLAYS_ADS}))
        )
        assert document.word_count < 1000
        assert PLAIN_DISCLOSURES[Behavior.DISPLAYS_ADS] in document.text
        assert Behavior.DISPLAYS_ADS in document.disclosed_behaviors

    def test_clean_software_says_so(self):
        document = generate_eula(_exe(ConsentLevel.HIGH))
        assert "does not collect data" in document.text


class TestMediumConsent:
    def test_long_legalese_with_buried_disclosures(self):
        document = generate_eula(
            _exe(ConsentLevel.MEDIUM, frozenset({Behavior.TRACKS_BROWSING}))
        )
        assert document.word_count > 4000  # the "well over 5000 words" kind
        legalese = LEGALESE_DISCLOSURES[Behavior.TRACKS_BROWSING]
        assert legalese in document.text
        assert PLAIN_DISCLOSURES[Behavior.TRACKS_BROWSING] not in document.text
        # the disclosure is buried past the midpoint
        position = document.text.find(legalese)
        assert position > len(document.text) * 0.4

    def test_bundling_disclosed_when_payloads_present(self):
        payload = build_executable("payload.exe")
        document = generate_eula(
            _exe(ConsentLevel.MEDIUM, frozenset(), bundled=(payload,))
        )
        assert Behavior.BUNDLES_SOFTWARE in document.disclosed_behaviors


class TestLowConsent:
    def test_behaviors_never_mentioned(self):
        document = generate_eula(
            _exe(ConsentLevel.LOW, frozenset({Behavior.KEYLOGGING}))
        )
        assert document.disclosed_behaviors == frozenset()
        assert PLAIN_DISCLOSURES[Behavior.KEYLOGGING] not in document.text
        assert LEGALESE_DISCLOSURES[Behavior.KEYLOGGING] not in document.text


class TestDeterminism:
    def test_same_executable_same_text(self):
        executable = _exe(
            ConsentLevel.MEDIUM, frozenset({Behavior.DISPLAYS_ADS})
        )
        assert generate_eula(executable).text == generate_eula(executable).text

    def test_different_content_different_padding(self):
        a = build_executable(
            "a.exe",
            consent=ConsentLevel.MEDIUM,
            behaviors=frozenset({Behavior.DISPLAYS_ADS}),
            content=b"a",
        )
        b = build_executable(
            "b.exe",
            consent=ConsentLevel.MEDIUM,
            behaviors=frozenset({Behavior.DISPLAYS_ADS}),
            content=b"b",
        )
        assert generate_eula(a).text != generate_eula(b).text

    def test_custom_targets(self):
        generator = EulaGenerator(medium_target_words=3000)
        document = generator.generate(
            _exe(ConsentLevel.MEDIUM, frozenset({Behavior.DISPLAYS_ADS}))
        )
        assert 3000 <= document.word_count < 3600
