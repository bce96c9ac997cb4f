"""The end-to-end community simulation.

One server, many machines, simulated weeks: users install software from a
generated population, run their favourites daily, answer dialogs and
rating prompts according to their archetype, and the server aggregates
nightly — the full loop the paper's deployment ran with real people.

Protection modes (per fleet):

* ``"reputation"`` — every machine runs the reputation client;
* ``"none"`` — bare machines (the >80 %-infected baseline);
* ``"antivirus"`` / ``"antispyware"`` — signature scanners fed by a shared
  lab that receives samples as software is first seen running in the
  field;
* modes combine: ``("antivirus", "reputation")`` layers both hooks.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Optional

from ..baselines import (
    AntiSpywareScanner,
    AntivirusScanner,
    SignatureDatabase,
    SignatureLab,
)
from ..client import ClientConfig, PrompterConfig, ReputationClient
from ..clock import SimClock, days
from ..core.bootstrap import BootstrapCorpus, bootstrap_database
from ..core.trust import TrustPolicy
from ..net import LatencyModel, Network
from ..server import ReputationServer
from ..winsim import Behavior, Machine
from .metrics import (
    active_infection_rate,
    infection_rate,
    mean_absolute_rating_error,
    rating_coverage,
)
from .population import (
    PopulationConfig,
    SoftwarePopulation,
    generate_population,
    true_quality_score,
)
from .users import ALL_ARCHETYPES, UserArchetype, make_rating_responder

_SCORE_IN_COMMENT = re.compile(r"\((\d+)/10\)")


@dataclass(frozen=True)
class CommunityConfig:
    """Everything one community run depends on."""

    users: int = 40
    simulated_days: int = 60
    seed: int = 42
    protection: tuple = ("reputation",)
    population: Optional[PopulationConfig] = None
    archetypes: tuple = ALL_ARCHETYPES
    #: Prompt thresholds for the fleet (E8 uses the paper's 50/2; the
    #: community default is lower so votes flow within a 60-day run).
    prompter: PrompterConfig = field(
        default_factory=lambda: PrompterConfig(
            execution_threshold=10, max_prompts_per_week=2
        )
    )
    trust_policy: Optional[TrustPolicy] = None
    bootstrap: Optional[BootstrapCorpus] = None
    moderated_comments: bool = False
    #: Per-day chance a startup-registered program auto-runs.
    autorun_probability: float = 0.9
    puzzle_difficulty: int = 4
    #: Enable the Sec. 5 runtime-analysis lab on the server; field
    #: samples are submitted as software is first seen running.
    runtime_analysis: bool = False
    runtime_analysis_delay: int = 0
    #: Factory building the policy installed on every client (None: no
    #: policy module, pure interactive dialogs).
    client_policy_factory: Optional[object] = None
    #: Daily per-program probability of shipping a new version (new
    #: content, new SHA-1, ratings reset — Sec. 3.3).  Users holding the
    #: program auto-update.
    version_churn_per_day: float = 0.0

    def __post_init__(self):
        if self.users < 1:
            raise ValueError("community needs at least one user")
        if self.simulated_days < 1:
            raise ValueError("simulate at least one day")
        unknown = set(self.protection) - {
            "reputation",
            "none",
            "antivirus",
            "antispyware",
        }
        if unknown:
            raise ValueError(f"unknown protection modes {sorted(unknown)}")


@dataclass
class _SimUser:
    """One simulated community member and their machine."""

    username: str
    archetype: UserArchetype
    machine: Machine
    client: Optional[ReputationClient]
    rng: random.Random
    favorites: list
    occasional: list
    own_view: dict  # software_id -> Executable (what is on their disk)


@dataclass
class CommunityResult:
    """Everything a community run produces."""

    config: CommunityConfig
    population: SoftwarePopulation
    server: ReputationServer
    users: list
    infection_by_day: list
    active_infection_by_day: list
    votes_by_day: list
    rated_software_by_day: list
    final_infection_rate: float
    final_active_infection_rate: float
    final_coverage: float
    final_rating_error: Optional[float]
    executables_by_id: dict
    current_versions: dict

    @property
    def machines(self) -> list:
        return [user.machine for user in self.users]

    @property
    def current_executables(self) -> list:
        """The currently shipping version of every program (under churn
        this differs from the original population)."""
        return list(self.current_versions.values())

    @property
    def engine(self):
        return self.server.engine

    def stats(self) -> dict:
        merged = dict(self.server.engine.stats())
        merged["final_infection_rate"] = self.final_infection_rate
        merged["final_active_infection_rate"] = self.final_active_infection_rate
        merged["final_coverage"] = self.final_coverage
        merged["final_rating_error"] = self.final_rating_error
        return merged


class CommunitySimulation:
    """Builds and runs one community scenario."""

    def __init__(self, config: Optional[CommunityConfig] = None):
        self.config = config or CommunityConfig()
        self._rng = random.Random(self.config.seed)
        self.clock = SimClock()
        # The network must not advance the community clock: days tick in
        # the daily loop, not per packet.
        self.network = Network(
            clock=None, latency=LatencyModel(), rng=random.Random(self.config.seed + 1)
        )
        from ..core.reputation import ReputationEngine

        engine = ReputationEngine(
            clock=self.clock,
            trust_policy=self.config.trust_policy,
            moderated_comments=self.config.moderated_comments,
        )
        self.server = ReputationServer(
            engine=engine,
            puzzle_difficulty=self.config.puzzle_difficulty,
            rng=random.Random(self.config.seed + 2),
            runtime_analysis=self.config.runtime_analysis,
            analysis_delay=self.config.runtime_analysis_delay,
        )
        self.network.register("server", self.server.handle_bytes)
        self.population = generate_population(
            self.config.population
            or PopulationConfig(seed=self.config.seed + 3)
        )
        self.executables_by_id = self._index_population()
        self._auto_moderator = None
        if self.config.moderated_comments:
            from ..core.moderation import AutoModerator

            self._auto_moderator = AutoModerator(self.server.engine.moderation)
        #: original software id -> the currently shipping executable.
        self._current_version: dict = {
            executable.software_id: executable
            for executable in self.population.executables
        }
        self._churn_rng = random.Random(self.config.seed + 4)
        self._av_db = SignatureDatabase()
        self._as_db = SignatureDatabase()
        self._labs: list[SignatureLab] = []
        if "antivirus" in self.config.protection:
            self._labs.append(AntivirusScanner.build_lab(self._av_db))
        if "antispyware" in self.config.protection:
            self._labs.append(AntiSpywareScanner.build_lab(self._as_db))
        self.users: list[_SimUser] = []

    def _index_population(self) -> dict:
        index = {}
        for executable in self.population.executables:
            index[executable.software_id] = executable
            for payload in executable.bundled:
                index[payload.software_id] = payload
        return index

    # -- setup ----------------------------------------------------------------

    def _pick_archetype(self, rng: random.Random) -> UserArchetype:
        shares = [archetype.share for archetype in self.config.archetypes]
        return rng.choices(list(self.config.archetypes), weights=shares)[0]

    def _build_user(self, index: int) -> _SimUser:
        rng = random.Random(self.config.seed * 1000 + index)
        archetype = self._pick_archetype(rng)
        username = f"{archetype.name}_{index}"
        machine = Machine(f"pc-{index}", clock=self.clock)
        installs = rng.sample(
            self.population.executables,
            min(archetype.installs, len(self.population.executables)),
        )
        own_view = {}
        for executable in installs:
            machine.install(executable)
            own_view[executable.software_id] = executable
            for payload in executable.bundled:
                own_view[payload.software_id] = payload
        favorites_count = max(1, len(installs) // 3)
        favorites = [e.software_id for e in installs[:favorites_count]]
        occasional = [e.software_id for e in installs[favorites_count:]]
        client: Optional[ReputationClient] = None
        if "antivirus" in self.config.protection:
            AntivirusScanner(self._av_db).install_on(machine)
        if "antispyware" in self.config.protection:
            AntiSpywareScanner(self._as_db).install_on(machine)
        if "reputation" in self.config.protection:
            policy = None
            if self.config.client_policy_factory is not None:
                policy = self.config.client_policy_factory()
            client = ReputationClient(
                ClientConfig(
                    address=f"10.0.0.{index}",
                    server_address="server",
                    username=username,
                    password=f"pw-{username}",
                    email=f"{username}@example.org",
                ),
                machine,
                self.network,
                responder=archetype.build_responder(),
                rating_responder=make_rating_responder(archetype, own_view, rng),
                prompter_config=self.config.prompter,
                policy=policy,
            )
            client.sign_up()
            client.install_hook()
        return _SimUser(
            username=username,
            archetype=archetype,
            machine=machine,
            client=client,
            rng=rng,
            favorites=favorites,
            occasional=occasional,
            own_view=own_view,
        )

    def setup(self) -> None:
        """Create users, machines, clients; apply bootstrap if configured."""
        if self.config.bootstrap is not None:
            bootstrap_database(
                self.server.engine, self.config.bootstrap, self.clock.now()
            )
            self.server.engine.reconcile_scores()
        self.users = [
            self._build_user(index) for index in range(self.config.users)
        ]

    # -- the daily loop -----------------------------------------------------------

    def run(self) -> CommunityResult:
        """Execute the full scenario and collect the time series."""
        if not self.users:
            self.setup()
        infection_by_day = []
        active_by_day = []
        votes_by_day = []
        rated_by_day = []
        window = days(7)
        for _day in range(self.config.simulated_days):
            if self.config.version_churn_per_day > 0:
                self._churn_versions()
            for user in self.users:
                self._simulate_user_day(user)
            self.clock.advance(days(1))
            self.server.run_daily_batch()
            if self._auto_moderator is not None:
                # The daily moderation shift: the auto-moderator clears
                # the obvious cases, a human approves the escalations.
                self._auto_moderator.prescreen(self.clock.now())
                self.server.engine.moderation.review_all(
                    "admin", self.clock.now(), is_acceptable=lambda c: True
                )
            machines = [user.machine for user in self.users]
            infection_by_day.append(infection_rate(machines))
            active_by_day.append(active_infection_rate(machines, window))
            votes_by_day.append(self.server.engine.ratings.total_votes())
            rated_by_day.append(self.server.engine.aggregator.scored_count())
        return CommunityResult(
            config=self.config,
            population=self.population,
            server=self.server,
            users=self.users,
            infection_by_day=infection_by_day,
            active_infection_by_day=active_by_day,
            votes_by_day=votes_by_day,
            rated_software_by_day=rated_by_day,
            final_infection_rate=infection_by_day[-1],
            final_active_infection_rate=active_by_day[-1],
            final_coverage=rating_coverage(
                self.server.engine, self.population.executables
            ),
            final_rating_error=mean_absolute_rating_error(
                self.server.engine, self.executables_by_id
            ),
            executables_by_id=self.executables_by_id,
            current_versions=dict(self._current_version),
        )

    def _simulate_user_day(self, user: _SimUser) -> None:
        rng = user.rng
        # Favourite programs run 1-3 times a day; occasional ones rarely.
        launches: list = []
        for software_id in user.favorites:
            launches.extend([software_id] * rng.randint(1, 3))
        for software_id in user.occasional:
            if rng.random() < 0.15:
                launches.append(software_id)
        # Startup-registered software (including silently bundled PIS)
        # launches itself.
        for executable in user.machine.installed_software():
            if (
                Behavior.REGISTERS_STARTUP in executable.behaviors
                and rng.random() < self.config.autorun_probability
            ):
                launches.append(executable.software_id)
        rng.shuffle(launches)
        budget = int(user.archetype.executions_per_day * 2)
        for software_id in launches[:budget]:
            if not user.machine.is_installed(software_id):
                continue
            record = user.machine.run(software_id)
            if record.outcome.value == "ran":
                self._field_sample(software_id)
        self._maybe_remark(user)

    def _churn_versions(self) -> None:
        """Ship new versions: new bytes, new IDs, ratings start over.

        Every user holding the old version auto-updates — their lists and
        run schedules now point at an unrated fingerprint, which is the
        Sec. 3.3 churn cost the vendor-rating mechanism answers.
        """
        rng = self._churn_rng
        for base_id, current in list(self._current_version.items()):
            if rng.random() >= self.config.version_churn_per_day:
                continue
            bump = rng.randint(1, 10 ** 6)
            newer = current.with_new_version(
                version=f"{current.version}.{bump % 100}",
                content_suffix=f"|update-{bump}".encode("utf-8"),
            )
            self._current_version[base_id] = newer
            self.executables_by_id[newer.software_id] = newer
            old_id = current.software_id
            new_id = newer.software_id
            for user in self.users:
                if not user.machine.is_installed(old_id):
                    continue
                user.machine.uninstall(old_id)
                user.machine.install(newer)
                user.own_view.pop(old_id, None)
                user.own_view[new_id] = newer
                user.favorites = [
                    new_id if sid == old_id else sid for sid in user.favorites
                ]
                user.occasional = [
                    new_id if sid == old_id else sid for sid in user.occasional
                ]

    def _field_sample(self, software_id: str) -> None:
        """Software seen running in the field reaches the labs —
        signature vendors (AV/anti-spyware modes) and the reputation
        server's own runtime-analysis pipeline, when enabled."""
        executable = self.executables_by_id.get(software_id)
        if executable is None:
            return
        for lab in self._labs:
            lab.submit_sample(executable, self.clock.now())
        self.server.submit_sample(executable)

    def _maybe_remark(self, user: _SimUser) -> None:
        """Archetype-driven remark behaviour on others' comments."""
        if user.client is None:
            return
        if user.rng.random() >= user.archetype.remarks_probability:
            return
        engine = self.server.engine
        executed = [
            sid
            for sid in user.own_view
            if user.machine.execution_count(sid) > 0
        ]
        if not executed:
            return
        software_id = user.rng.choice(executed)
        comments = engine.comments.comments_for(software_id)
        candidates = [
            comment
            for comment in comments
            if comment.username != user.username
        ]
        if not candidates:
            return
        comment = user.rng.choice(candidates)
        remarked_before = any(
            remark.username == user.username
            for remark in engine.comments.remarks_for(comment.comment_id)
        )
        if remarked_before:
            return
        truth = true_quality_score(user.own_view[software_id])
        match = _SCORE_IN_COMMENT.search(comment.text)
        if match is None:
            positive = True  # nothing to disagree with
        else:
            claimed = int(match.group(1))
            positive = abs(claimed - truth) <= 2
        user.client.submit_remark(comment.comment_id, positive)
