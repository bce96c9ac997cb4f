"""AV and anti-spyware targeting policies (Sec. 1 / 4.3)."""


from repro.baselines import (
    AntivirusScanner,
    NoProtection,
    SignatureDatabase,
)
from repro.baselines.antispyware import antispyware_targeting_policy
from repro.baselines.antivirus import antivirus_targeting_policy
from repro.core.taxonomy import ConsentLevel
from repro.winsim import (
    Behavior,
    ExecutionOutcome,
    Machine,
    build_executable,
)


def _by_cell(number):
    """One representative executable per taxonomy cell."""
    specs = {
        1: dict(consent=ConsentLevel.HIGH, behaviors=set()),
        2: dict(consent=ConsentLevel.HIGH, behaviors={Behavior.TRACKS_BROWSING}),
        3: dict(consent=ConsentLevel.HIGH, behaviors={Behavior.KEYLOGGING}),
        4: dict(consent=ConsentLevel.MEDIUM, behaviors={Behavior.DISPLAYS_ADS}),
        5: dict(consent=ConsentLevel.MEDIUM, behaviors={Behavior.TRACKS_BROWSING}),
        6: dict(consent=ConsentLevel.MEDIUM, behaviors={Behavior.KEYLOGGING}),
        7: dict(consent=ConsentLevel.LOW, behaviors=set()),
        8: dict(consent=ConsentLevel.LOW, behaviors={Behavior.TRACKS_BROWSING}),
        9: dict(consent=ConsentLevel.LOW, behaviors={Behavior.KEYLOGGING}),
    }
    spec = specs[number]
    executable = build_executable(
        f"cell{number}.exe",
        consent=spec["consent"],
        behaviors=frozenset(spec["behaviors"]),
    )
    assert executable.taxonomy_cell.number == number
    return executable


class TestAntivirusTargeting:
    def test_targets_exactly_the_malware_region(self):
        """Sec. 1: AV focuses on malware, not spyware."""
        targeted = {
            number
            for number in range(1, 10)
            if antivirus_targeting_policy(_by_cell(number)) is not None
        }
        assert targeted == {3, 6, 7, 8, 9}


class TestAntiSpywareTargeting:
    def test_legal_constraint_spares_consented_greyware(self):
        """EULA-covered, non-severe software cannot be flagged (Gator suits)."""
        targeted = {
            number
            for number in range(1, 10)
            if antispyware_targeting_policy(_by_cell(number), legal_constraint=True)
            is not None
        }
        # cells 2, 4, 5 (consented, <severe) are legally protected;
        # cell 3/6 severe and all low-consent cells remain targetable.
        assert targeted == {3, 6, 7, 8, 9}

    def test_unconstrained_vendor_covers_grey_zone(self):
        targeted = {
            number
            for number in range(1, 10)
            if antispyware_targeting_policy(_by_cell(number), legal_constraint=False)
            is not None
        }
        assert targeted == {2, 3, 4, 5, 6, 7, 8, 9}

    def test_labels_distinguish_spyware_and_malware(self):
        assert antispyware_targeting_policy(_by_cell(9)) == "malware"
        assert (
            antispyware_targeting_policy(_by_cell(5), legal_constraint=False)
            == "spyware"
        )


class TestEndToEnd:
    def test_av_blocks_known_malware_after_lag(self, clock):
        feed = SignatureDatabase()
        lab = AntivirusScanner.build_lab(feed, analysis_delay=100)
        scanner = AntivirusScanner(feed, sync_interval=0)
        machine = Machine("pc", clock=clock)
        scanner.install_on(machine)
        malware = _by_cell(9)
        sid = machine.install(malware)
        # victim zero runs it and the sample reaches the lab
        assert machine.run(sid).outcome is ExecutionOutcome.RAN
        lab.submit_sample(malware, now=clock.now())
        clock.advance(99)
        assert machine.run(sid).outcome is ExecutionOutcome.RAN
        clock.advance(1)
        assert machine.run(sid).outcome is ExecutionOutcome.BLOCKED

    def test_av_never_blocks_greyware(self, clock):
        feed = SignatureDatabase()
        lab = AntivirusScanner.build_lab(feed, analysis_delay=0)
        scanner = AntivirusScanner(feed, sync_interval=0)
        machine = Machine("pc", clock=clock)
        scanner.install_on(machine)
        greyware = _by_cell(5)
        lab.submit_sample(greyware, now=0)
        sid = machine.install(greyware)
        assert machine.run(sid).outcome is ExecutionOutcome.RAN

    def test_no_protection_passes_everything(self, clock):
        machine = Machine("pc", clock=clock)
        NoProtection().install_on(machine)
        sid = machine.install(_by_cell(9))
        assert machine.run(sid).outcome is ExecutionOutcome.RAN

    def test_polymorphic_variant_evades_signatures(self, clock):
        """Fingerprint-keyed defences lose to per-download mutation."""
        import random

        feed = SignatureDatabase()
        lab = AntivirusScanner.build_lab(feed, analysis_delay=0)
        scanner = AntivirusScanner(feed, sync_interval=0)
        machine = Machine("pc", clock=clock)
        scanner.install_on(machine)
        base = _by_cell(9)
        lab.submit_sample(base, now=0)
        clock.advance(1)
        variant = base.polymorphic_variant(random.Random(0))
        sid = machine.install(variant)
        assert machine.run(sid).outcome is ExecutionOutcome.RAN
