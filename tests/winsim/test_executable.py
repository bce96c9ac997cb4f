"""Executables: identity, ground truth, derived variants."""

import random


from repro.core.taxonomy import ConsentLevel, Consequence
from repro.crypto.digests import software_id_hex
from repro.winsim import Behavior, Executable, build_executable


class TestIdentity:
    def test_software_id_is_content_hash(self):
        executable = build_executable("a.exe", content=b"bytes")
        assert executable.software_id == software_id_hex(b"bytes")

    def test_factory_generates_unique_content(self):
        a = build_executable("a.exe")
        b = build_executable("a.exe")
        assert a.software_id != b.software_id

    def test_file_size(self):
        executable = build_executable("a.exe", content=b"12345")
        assert executable.file_size == 5


class TestGroundTruth:
    def test_clean_executable_is_legitimate(self):
        executable = build_executable("clean.exe")
        assert executable.consequence is Consequence.TOLERABLE
        assert executable.taxonomy_cell.number == 1
        assert not executable.is_privacy_invasive

    def test_moderate_behavior_moderate_consequence(self):
        executable = build_executable(
            "t.exe", behaviors={Behavior.TRACKS_BROWSING}
        )
        assert executable.consequence is Consequence.MODERATE

    def test_medium_consent_moderate_is_cell_5(self):
        executable = build_executable(
            "u.exe",
            behaviors={Behavior.TRACKS_BROWSING},
            consent=ConsentLevel.MEDIUM,
        )
        assert executable.taxonomy_cell.number == 5
        assert executable.is_privacy_invasive

    def test_bundled_payload_raises_consequence(self):
        payload = build_executable(
            "payload.exe", behaviors={Behavior.KEYLOGGING}
        )
        carrier = build_executable("carrier.exe", bundled=(payload,))
        assert carrier.consequence is Consequence.SEVERE

    def test_has_behavior(self):
        executable = build_executable("a.exe", behaviors={Behavior.DISPLAYS_ADS})
        assert executable.has_behavior(Behavior.DISPLAYS_ADS)
        assert not executable.has_behavior(Behavior.KEYLOGGING)


class TestDerivedVariants:
    def test_new_version_changes_id(self):
        """Sec. 3.3: new version, new fingerprint, ratings separate."""
        v1 = build_executable("p.exe", version="1.0")
        v2 = v1.with_new_version("2.0", b"changes")
        assert v2.software_id != v1.software_id
        assert v2.version == "2.0"
        assert v2.file_name == v1.file_name

    def test_new_version_drops_signature(self):
        from repro.crypto import CertificateAuthority

        ca = CertificateAuthority("CA", b"k")
        cert = ca.issue_certificate("V")
        v1 = build_executable("p.exe", content=b"v1")
        signed = Executable(
            file_name=v1.file_name,
            content=v1.content,
            signature=ca.sign(cert, v1.content),
        )
        v2 = signed.with_new_version("2.0", b"x")
        assert v2.signature is None

    def test_polymorphic_variant_same_behavior_new_id(self):
        rng = random.Random(0)
        base = build_executable(
            "pis.exe", behaviors={Behavior.TRACKS_BROWSING}
        )
        variant = base.polymorphic_variant(rng)
        assert variant.software_id != base.software_id
        assert variant.behaviors == base.behaviors
        assert variant.taxonomy_cell == base.taxonomy_cell

    def test_polymorphic_variants_are_distinct(self):
        rng = random.Random(0)
        base = build_executable("pis.exe")
        ids = {base.polymorphic_variant(rng).software_id for __ in range(20)}
        assert len(ids) == 20

    def test_stripped_vendor(self):
        executable = build_executable("p.exe", vendor="Claria")
        stripped = executable.stripped_of_vendor()
        assert stripped.vendor is None
        assert stripped.software_id == executable.software_id
