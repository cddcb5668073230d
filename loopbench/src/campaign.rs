//! The two campaign workloads.
//!
//! * `metro_campaign` runs the paper's loop with the real estimator:
//!   drive slices through a 6×6-block Manhattan grid, online CS in every
//!   vehicle, durable rounds on `FleetTransport` (write-ahead log and
//!   snapshots), the served `GeoMap`, and a map-fed BRR user drive. The
//!   estimator does nearly all the work.
//! * `fleet_round` runs 10k vehicles per round with a cheap 8-sample
//!   estimator on the sharded, non-durable path, so the round engine,
//!   the wire codec and crowd inference do most of the work.
//!
//! Every input (readings, behaviours, fault plans) is generated from the
//! seed before anything is timed; the program sees only those inputs.

use crate::report::{peak_rss_mb, OpTally, Outcome};
use crate::stats::{mean, median, tail};
use crate::trace::{layer_self_times, Recorder};
use crate::{median_setup, Args};
use crowdwifi_channel::{ApId, PathLossModel, RssReading};
use crowdwifi_core::metrics::counting_error;
use crowdwifi_core::pipeline::{OnlineCs, OnlineCsConfig};
use crowdwifi_core::window::WindowConfig;
use crowdwifi_core::ApEstimate;
use crowdwifi_crowd::fusion::FusedAp;
use crowdwifi_geo::{Point, Rect, Trajectory};
use crowdwifi_geomap::{GeoMap, IngestStats, MapConfig};
use crowdwifi_handoff::connectivity::{simulate, ConnectivityConfig, ConnectivityTrace, Policy};
use crowdwifi_handoff::db::ApDatabase;
use crowdwifi_middleware::durability::{LogSink, MemorySink, SnapshotStore};
use crowdwifi_middleware::fault::{FaultPlan, FaultPoint};
use crowdwifi_middleware::mapsink::GeoMapSink;
use crowdwifi_middleware::messages::{MappingAnswer, ToServer, ToVehicle, VehicleId};
use crowdwifi_middleware::platform::{FaultTolerance, PlatformConfig};
use crowdwifi_middleware::protocol::{PlatformReport, ShardedDatabase};
use crowdwifi_middleware::segment::SegmentMap;
use crowdwifi_middleware::server::CrowdServer;
use crowdwifi_middleware::transport::{
    run_campaign_with_faults_into, run_durable_campaign_into, sim_round_with_digest,
    CampaignOutcome, FleetTransport, RoundSink,
};
use crowdwifi_middleware::vehicle::{Behavior, CrowdVehicle};
use crowdwifi_middleware::wire::WireMessage;
use crowdwifi_obs::Registry;
use crowdwifi_vanet_sim::mobility::manhattan_route;
use crowdwifi_vanet_sim::{mph_to_mps, AccessPoint, RssCollector, Scenario};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Map clock advance per closed round.
const ROUND_PERIOD: Duration = Duration::from_secs(60);
/// Cross-round reliability EMA factor.
const SMOOTHING: f64 = 0.5;
/// Most campaigns one traced run replays.
const TRACED_CAMPAIGNS: usize = 3;
/// User-vehicle speed on the BRR drive.
const USER_MPH: f64 = 25.0;

const METRO_BLOCKS: usize = 6;
const METRO_BLOCK_M: f64 = 100.0;
const METRO_VEHICLES: u32 = 40;
/// Seconds of 1 Hz sampling per vehicle slice.
const METRO_SLICE_S: usize = 80;
const METRO_SPAMMERS: usize = 8;
/// Distinct pregenerated rounds; campaigns cycle through them.
const METRO_POOL: usize = 12;
const METRO_ROUNDS_PER_CAMPAIGN: usize = 2;
/// Vehicles in the small round checked against the reference simulator.
const METRO_EQUIV_VEHICLES: usize = 6;

const FLEET_VEHICLES: u32 = 10_000;
const FLEET_PER_SEGMENT: u32 = 20;
const FLEET_SEG_M: f64 = 150.0;
/// Readings per fleet vehicle, one estimator window's worth.
const FLEET_SAMPLES: u32 = 8;
/// Spacing of a fleet vehicle's readings along the road (110 m drive).
const FLEET_SAMPLE_GAP_M: f64 = 110.0 / (FLEET_SAMPLES - 1) as f64;
const FLEET_SPAMMERS: usize = 1_000;
const FLEET_POOL: usize = 4;
const FLEET_ROUNDS_PER_CAMPAIGN: usize = 2;
const FLEET_EQUIV_VEHICLES: usize = 200;
/// Every segment's served AP must lie this close to its true position.
const FLEET_TOLERANCE_M: f64 = 50.0;
/// One crashing and one stalling vehicle per this many.
const FLEET_FAULT_STRIDE: u32 = 2048;

/// Which campaign workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `metro_campaign`.
    Metro,
    /// `fleet_round`.
    Fleet,
}

#[derive(Debug, Clone, PartialEq)]
struct VehicleInput {
    id: VehicleId,
    behavior: Behavior,
    readings: Vec<RssReading>,
}

#[derive(Debug, Clone, PartialEq)]
struct RoundInput {
    vehicles: Vec<VehicleInput>,
    plan: FaultPlan,
}

/// A generated campaign workload: everything the program will be fed.
#[derive(Debug, PartialEq)]
struct Campaign {
    kind: Kind,
    segments: SegmentMap,
    map: MapConfig,
    pathloss: PathLossModel,
    estimator: OnlineCsConfig,
    config: PlatformConfig,
    pool: Vec<RoundInput>,
    truth: Vec<Point>,
    user: Scenario,
    user_route: Trajectory,
}

/// One campaign call and what it left behind.
struct CampaignRun {
    outcome: CampaignOutcome,
    map: Arc<GeoMap>,
    start: Instant,
    end: Instant,
    /// `(entered, returned)` of every sink call, one per round.
    closes: Vec<(Instant, Instant)>,
    fleet_sizes: Vec<usize>,
    wal_bytes: u64,
}

impl CampaignRun {
    /// Per round: from the round's start (the previous round's map
    /// publish, or the call) until its fused APs are readable in the map.
    fn round_to_map(&self) -> Vec<f64> {
        let mut previous = self.start;
        self.closes
            .iter()
            .map(|&(_, returned)| {
                let d = returned.duration_since(previous).as_secs_f64();
                previous = returned;
                d
            })
            .collect()
    }

    /// Per round: the sink call, i.e. absorbing the fused APs into the
    /// map and publishing the new generation.
    fn publish(&self) -> Vec<f64> {
        self.closes
            .iter()
            .map(|&(entered, returned)| returned.duration_since(entered).as_secs_f64())
            .collect()
    }
}

/// Times every round close of the wrapped [`GeoMapSink`].
struct TimedSink {
    inner: GeoMapSink,
    closes: Vec<(Instant, Instant)>,
}

impl RoundSink for TimedSink {
    fn round_closed(&mut self, round: usize, report: &PlatformReport) {
        let entered = Instant::now();
        self.inner.round_closed(round, report);
        self.closes.push((entered, Instant::now()));
    }
}

/// An in-memory write-ahead log that counts the bytes appended to it.
#[derive(Default)]
struct CountingWal {
    inner: MemorySink,
    appended: u64,
}

impl LogSink for CountingWal {
    fn append(&mut self, bytes: &[u8]) -> crowdwifi_middleware::Result<()> {
        self.appended += bytes.len() as u64;
        self.inner.append(bytes)
    }
    fn sync(&mut self) -> crowdwifi_middleware::Result<()> {
        self.inner.sync()
    }
    fn contents(&mut self) -> crowdwifi_middleware::Result<Vec<u8>> {
        self.inner.contents()
    }
    fn reset(&mut self, bytes: &[u8]) -> crowdwifi_middleware::Result<()> {
        self.inner.reset(bytes)
    }
}

fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
    Rect::new(Point::new(x0, y0), Point::new(x1, y1)).expect("ordered rectangle")
}

/// `count` distinct vehicle ids out of `0..n`, drawn from `rng`.
fn pick_spammers(n: u32, count: usize, rng: &mut ChaCha8Rng) -> Vec<bool> {
    let mut ids: Vec<u32> = (0..n).collect();
    ids.shuffle(rng);
    let mut spammer = vec![false; n as usize];
    for &v in &ids[..count] {
        spammer[v as usize] = true;
    }
    spammer
}

fn behavior(spammer: bool) -> Behavior {
    if spammer {
        Behavior::Spammer
    } else {
        Behavior::Honest
    }
}

impl Campaign {
    fn generate(kind: Kind, seed: u64) -> Campaign {
        match kind {
            Kind::Metro => Campaign::metro(seed),
            Kind::Fleet => Campaign::fleet(seed),
        }
    }

    /// 40 vehicles per round, each an 80 s slice of the Manhattan snake
    /// sampled at 1 Hz, 8 of them spammers throughout; 1% drop and 0.5%
    /// duplication on every link. Vehicle `v` starts at a seeded point of
    /// the `v`-th of 40 equal stretches of the snake, so every round
    /// covers the whole grid and rounds cost about the same whatever the
    /// seed.
    fn metro(seed: u64) -> Campaign {
        let scenario =
            Scenario::manhattan(METRO_BLOCKS, METRO_BLOCK_M).expect("valid Manhattan scenario");
        let route = manhattan_route(METRO_BLOCKS, METRO_BLOCK_M, USER_MPH);
        let collector = RssCollector::new(&scenario);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let spammers = pick_spammers(METRO_VEHICLES, METRO_SPAMMERS, &mut rng);
        let last_start = route.duration() - METRO_SLICE_S as f64;
        let pool = (0..METRO_POOL)
            .map(|_| {
                let vehicles = (0..METRO_VEHICLES)
                    .map(|v| {
                        let stretch = last_start / f64::from(METRO_VEHICLES);
                        let t0 = route.start_time()
                            + stretch * (f64::from(v) + rng.random_range(0.0..1.0));
                        let readings = (0..METRO_SLICE_S)
                            .filter_map(|k| {
                                let t = t0 + k as f64;
                                collector.sample_at(route.position_at(t), t, &mut rng)
                            })
                            .collect();
                        VehicleInput {
                            id: VehicleId(v),
                            behavior: behavior(spammers[v as usize]),
                            readings,
                        }
                    })
                    .collect();
                let plan = FaultPlan::noisy(rng.random_range(0..u64::MAX), 0.01, 0.005, 0.0);
                RoundInput { vehicles, plan }
            })
            .collect();
        Campaign {
            kind: Kind::Metro,
            segments: SegmentMap::new(scenario.area(), 150.0),
            // 75 m buckets: the corridor walk samples the route at half
            // a bucket, so buckets sized to the 600 m world keep the
            // user's query cheap.
            map: MapConfig {
                shard_level: 2,
                bucket_level: 3,
                ..MapConfig::new(scenario.area())
            },
            pathloss: *scenario.pathloss(),
            estimator: OnlineCsConfig {
                threads: 1,
                ..OnlineCsConfig::default()
            },
            config: PlatformConfig {
                seed: rng.random_range(0..u64::MAX),
                ..PlatformConfig::default()
            },
            pool,
            truth: scenario.ap_positions(),
            user: scenario,
            user_route: route,
        }
    }

    /// 10k vehicles per round on a straight road of 150 m segments, 20
    /// vehicles and one roadside AP per segment, 10% spammers; 1% drop,
    /// 0.5% duplication, and one crash and one stall per 2048 vehicles.
    fn fleet(seed: u64) -> Campaign {
        let segs = FLEET_VEHICLES.div_ceil(FLEET_PER_SEGMENT);
        let length = f64::from(segs) * FLEET_SEG_M;
        let world = rect(0.0, -20.0, length, 40.0);
        let pathloss = PathLossModel::uci_campus();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let truth: Vec<Point> = (0..segs)
            .map(|s| {
                let x0 = f64::from(s) * FLEET_SEG_M;
                Point::new(
                    x0 + rng.random_range(50.0..100.0),
                    rng.random_range(18.0..32.0),
                )
            })
            .collect();
        let spammers = pick_spammers(FLEET_VEHICLES, FLEET_SPAMMERS, &mut rng);
        let pool = (0..FLEET_POOL)
            .map(|_| {
                let vehicles = (0..FLEET_VEHICLES)
                    .map(|v| {
                        let seg = v / FLEET_PER_SEGMENT;
                        let x0 = f64::from(seg) * FLEET_SEG_M;
                        let ap = truth[seg as usize];
                        let lane = rng.random_range(0.0..14.0);
                        let readings = (0..FLEET_SAMPLES)
                            .map(|i| {
                                let p = Point::new(
                                    x0 + 20.0
                                        + FLEET_SAMPLE_GAP_M * f64::from(i)
                                        + rng.random_range(-1.0..1.0),
                                    lane,
                                );
                                let rss =
                                    pathloss.mean_rss(p.distance(ap)) + rng.random_range(-0.5..0.5);
                                RssReading::new(p, rss, f64::from(i))
                            })
                            .collect();
                        VehicleInput {
                            id: VehicleId(v),
                            behavior: behavior(spammers[v as usize]),
                            readings,
                        }
                    })
                    .collect();
                let mut plan = FaultPlan::noisy(rng.random_range(0..u64::MAX), 0.01, 0.005, 0.0);
                let (crash, stall) = (
                    rng.random_range(0..FLEET_FAULT_STRIDE),
                    rng.random_range(0..FLEET_FAULT_STRIDE),
                );
                for base in (0..FLEET_VEHICLES).step_by(FLEET_FAULT_STRIDE as usize) {
                    if base + crash < FLEET_VEHICLES {
                        plan = plan.crash(VehicleId(base + crash), FaultPoint::Upload);
                    }
                    if base + stall < FLEET_VEHICLES && stall != crash {
                        plan = plan.stall(VehicleId(base + stall), FaultPoint::Answer);
                    }
                }
                RoundInput { vehicles, plan }
            })
            .collect();
        let aps: Vec<AccessPoint> = truth
            .iter()
            .enumerate()
            .map(|(i, &p)| AccessPoint::new(ApId(i as u32), p, 100.0))
            .collect();
        let user = Scenario::new("fleet-road", world, aps, pathloss, 1.0).expect("valid road");
        let user_route = Trajectory::with_constant_speed(
            &[Point::new(0.0, 5.0), Point::new(length, 5.0)],
            mph_to_mps(USER_MPH),
        )
        .expect("valid road drive");
        Campaign {
            kind: Kind::Fleet,
            segments: SegmentMap::new(world, FLEET_SEG_M),
            // The map's geohash world is square: cells of a 75 km × 60 m
            // world would be 0.2 m tall.
            map: MapConfig::new(rect(0.0, -20.0, length, length - 20.0)),
            pathloss,
            // One 8-sample window on a 25 m lattice, one AP per window, no
            // global refinement. With `fleet_rounds`' 12-sample, 10 m
            // estimator the estimator still held ~80% of the round on a
            // 2-core machine; this one leaves the round engine the
            // largest layer.
            estimator: OnlineCsConfig {
                window: WindowConfig {
                    size: FLEET_SAMPLES as usize,
                    step: FLEET_SAMPLES as usize,
                    ..WindowConfig::default()
                },
                lattice: 25.0,
                radio_range: 60.0,
                max_ap_per_window: 1,
                global_refine: false,
                threads: 1,
                ..OnlineCsConfig::default()
            },
            config: PlatformConfig {
                seed: rng.random_range(0..u64::MAX),
                tolerance: FaultTolerance {
                    deadline: Duration::from_millis(800),
                    retry_backoff: Duration::from_millis(100),
                    ..FaultTolerance::default()
                },
                ..PlatformConfig::default()
            },
            pool,
            truth,
            user,
            user_route,
        }
    }

    fn durable(&self) -> bool {
        self.kind == Kind::Metro
    }

    fn rounds_per_campaign(&self) -> usize {
        match self.kind {
            Kind::Metro => METRO_ROUNDS_PER_CAMPAIGN,
            Kind::Fleet => FLEET_ROUNDS_PER_CAMPAIGN,
        }
    }

    fn readings(&self) -> u64 {
        self.pool
            .iter()
            .flat_map(|r| &r.vehicles)
            .map(|v| v.readings.len() as u64)
            .sum()
    }

    /// The pool rounds campaign `c` runs, in order.
    fn campaign_rounds(&self, c: usize) -> Vec<&RoundInput> {
        let k = self.rounds_per_campaign();
        (0..k)
            .map(|r| &self.pool[(c * k + r) % self.pool.len()])
            .collect()
    }

    fn vehicle(&self, input: &VehicleInput, registry: Option<&Registry>) -> CrowdVehicle {
        let mut estimator =
            OnlineCs::new(self.estimator, self.pathloss).expect("valid estimator config");
        if let Some(r) = registry {
            estimator = estimator.with_registry(r);
        }
        CrowdVehicle::new(input.id, estimator, input.behavior)
    }

    fn fleet_of(
        &self,
        input: &RoundInput,
        registry: Option<&Registry>,
    ) -> Vec<(CrowdVehicle, Vec<RssReading>)> {
        input
            .vehicles
            .iter()
            .map(|v| (self.vehicle(v, registry), v.readings.clone()))
            .collect()
    }

    fn new_map(&self) -> Arc<GeoMap> {
        Arc::new(GeoMap::new(self.map).expect("valid map config"))
    }

    fn sink(&self, map: &Arc<GeoMap>) -> GeoMapSink {
        GeoMapSink::new(Arc::clone(map), ROUND_PERIOD)
    }

    /// Builds campaign `c`'s fleets (untimed; estimators record into
    /// `registry` when given), then times one campaign call on
    /// `transport` that feeds a fresh map.
    fn run(
        &self,
        transport: &FleetTransport,
        c: usize,
        registry: Option<&Registry>,
    ) -> Result<CampaignRun, String> {
        let inputs = self.campaign_rounds(c);
        let fleets: Vec<_> = inputs.iter().map(|r| self.fleet_of(r, registry)).collect();
        let plans: Vec<FaultPlan> = inputs.iter().map(|r| r.plan.clone()).collect();
        let fleet_sizes = fleets.iter().map(Vec::len).collect();
        let map = self.new_map();
        let mut sink = TimedSink {
            inner: self.sink(&map),
            closes: Vec::new(),
        };
        let mut wal = CountingWal::default();
        let mut snapshots = SnapshotStore::in_memory();
        let start = Instant::now();
        let outcome = if self.durable() {
            run_durable_campaign_into(
                transport,
                self.segments.clone(),
                fleets,
                self.config,
                SMOOTHING,
                &plans,
                &mut wal,
                &mut snapshots,
                &mut sink,
            )
        } else {
            run_campaign_with_faults_into(
                transport,
                self.segments.clone(),
                fleets,
                self.config,
                SMOOTHING,
                &plans,
                &mut sink,
            )
        };
        let end = Instant::now();
        let outcome = outcome.map_err(|e| format!("campaign {c} failed: {e}"))?;
        Ok(CampaignRun {
            outcome,
            map,
            start,
            end,
            closes: sink.closes,
            fleet_sizes,
            wal_bytes: wal.appended,
        })
    }

    /// A small round of the first pool round's vehicles must be
    /// byte-identical on `FleetTransport` and the reference simulator.
    fn check_equivalence(&self, transport: &FleetTransport) -> Result<(), String> {
        let n = match self.kind {
            Kind::Metro => METRO_EQUIV_VEHICLES,
            Kind::Fleet => FLEET_EQUIV_VEHICLES,
        };
        let small = RoundInput {
            vehicles: self.pool[0].vehicles[..n].to_vec(),
            plan: self.pool[0].plan.clone(),
        };
        let (sim, sim_digest) = sim_round_with_digest(
            self.segments.clone(),
            self.fleet_of(&small, None),
            self.config,
            &small.plan,
        )
        .map_err(|e| format!("reference round failed: {e}"))?;
        let (fleet, fleet_digest) = transport
            .run_round_with_digest(
                self.segments.clone(),
                self.fleet_of(&small, None),
                self.config,
                &small.plan,
            )
            .map_err(|e| format!("fleet round failed: {e}"))?;
        if sim_digest != fleet_digest || format!("{:?}", sim.fused) != format!("{:?}", fleet.fused)
        {
            return Err(format!(
                "{n}-vehicle round diverged between FleetTransport and the reference simulator"
            ));
        }
        Ok(())
    }

    /// The sink-fed map must equal a replay of the reports' fused
    /// estimates through the same absorb calls.
    fn check_sink_replay(&self, run: &CampaignRun) -> Result<(), String> {
        let replay = self.new_map();
        for (i, report) in run.outcome.reports.iter().enumerate() {
            let now = close_micros(i);
            replay.absorb_estimates(now, &estimates_of(report));
        }
        if run.map.snapshot() == replay.snapshot() {
            Ok(())
        } else {
            Err("sink-fed map diverged from a replay of the report stream".to_string())
        }
    }

    /// Served map entries (credit above the floor).
    fn served(map: &GeoMap) -> Vec<Point> {
        let world = map.config().world;
        let diagonal = world.width().hypot(world.height());
        map.query_radius(world.center(), diagonal)
            .iter()
            .map(|a| a.position)
            .collect()
    }

    /// The user side: corridor query along the route, then BRR.
    fn user_drive(&self, map: &GeoMap, rec: Option<(&mut Recorder, u64)>) -> UserDrive {
        let cfg = ConnectivityConfig::default();
        let path: Vec<Point> = self
            .user_route
            .waypoints()
            .iter()
            .map(|w| w.position)
            .collect();
        let q0 = Instant::now();
        let ahead = map.aps_ahead(&path, cfg.believed_range);
        let q1 = Instant::now();
        let db = ApDatabase::new(ahead.iter().map(|a| a.position).collect());
        let trace = simulate(
            Policy::Brr,
            &self.user,
            &self.user_route,
            &db,
            cfg,
            &mut ChaCha8Rng::seed_from_u64(self.config.seed),
        );
        let q2 = Instant::now();
        if let Some((rec, id)) = rec {
            rec.record("geomap.query", None, id, q0, q1);
            rec.record("handoff.simulate", None, id, q1, q2);
        }
        UserDrive {
            results: ahead.len(),
            query_s: (q1 - q0).as_secs_f64(),
            simulate_s: (q2 - q1).as_secs_f64(),
            trace,
        }
    }
}

struct UserDrive {
    results: usize,
    query_s: f64,
    simulate_s: f64,
    trace: Result<ConnectivityTrace, crowdwifi_handoff::HandoffError>,
}

/// The map clock at which campaign round `round` closes, as the sink
/// stamps it.
fn close_micros(round: usize) -> u64 {
    (round as u64 + 1) * ROUND_PERIOD.as_micros() as u64
}

/// Per true AP, the distance to the nearest served entry (infinite when
/// nothing is served).
fn nearest_distances(truth: &[Point], served: &[Point]) -> Vec<f64> {
    truth
        .iter()
        .map(|t| {
            served
                .iter()
                .map(|s| s.distance(*t))
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Fused APs as the sink hands them to the map: support is credit.
fn estimates_of_fused(fused: &[FusedAp]) -> Vec<ApEstimate> {
    fused
        .iter()
        .map(|f| ApEstimate {
            position: f.position,
            credit: f.support,
        })
        .collect()
}

fn estimates_of(report: &PlatformReport) -> Vec<ApEstimate> {
    estimates_of_fused(&report.fused)
}

/// Accuracy of one campaign's served map, and the user-side drive over
/// it. Deterministic for a seed.
struct Accuracy {
    map_error_m: f64,
    count_error: f64,
    brr_connected: f64,
    interruptions: usize,
}

fn accuracy(campaign: &Campaign, run: &CampaignRun, checks: &mut Vec<String>) -> Accuracy {
    let served = Campaign::served(&run.map);
    if let Err(e) = campaign.check_sink_replay(run) {
        checks.push(e);
    }
    // Mean distance from each true AP to the nearest served entry. Ghost
    // entries do not enter it (the count error reports them): one-to-one
    // matching against ghosts swung the mean by ±15% between seeds.
    let nearest = nearest_distances(&campaign.truth, &served);
    let map_error_m = nearest.iter().sum::<f64>() / nearest.len() as f64;
    let worst = nearest.iter().copied().fold(0.0, f64::max);
    if campaign.kind == Kind::Fleet && worst > FLEET_TOLERANCE_M {
        checks.push(format!(
            "a segment's served AP is {worst:.1} m from the truth (limit {FLEET_TOLERANCE_M} m)"
        ));
    }
    if !map_error_m.is_finite() {
        checks.push("a true AP has no served entry".to_string());
    }
    let drive = campaign.user_drive(&run.map, None);
    let (brr_connected, interruptions) = match &drive.trace {
        Ok(t) => (t.connectivity_fraction(), t.interruptions()),
        Err(e) => {
            checks.push(format!("BRR simulation failed: {e}"));
            (f64::NAN, 0)
        }
    };
    Accuracy {
        map_error_m,
        count_error: counting_error(campaign.truth.len(), served.len()),
        brr_connected,
        interruptions,
    }
}

/// Runs a campaign workload and returns its result.
pub fn run(kind: Kind, args: &Args) -> Outcome {
    let (setup_s, campaign) = median_setup(|| {
        let campaign = Campaign::generate(kind, args.seed);
        // Fleet construction is part of set-up: build (and drop) the
        // first campaign's fleets once.
        for input in campaign.campaign_rounds(0) {
            drop(campaign.fleet_of(input, None));
        }
        campaign
    });
    let transport = FleetTransport::new();
    println!(
        "{}: seed {}, nproc {}, transport workers {}, estimator threads {}, {} vehicles x {} rounds per campaign, {} readings generated",
        args.workload.name(),
        args.seed,
        crate::nproc(),
        transport.worker_budget(),
        campaign.estimator.threads,
        campaign.pool[0].vehicles.len(),
        campaign.rounds_per_campaign(),
        campaign.readings(),
    );
    let mut checks = Vec::new();
    if let Err(e) = campaign.check_equivalence(&transport) {
        checks.push(e);
    }
    if args.trace {
        traced(&campaign, &transport, args, checks)
    } else {
        timed(&campaign, &transport, args, setup_s, checks)
    }
}

fn timed(
    campaign: &Campaign,
    transport: &FleetTransport,
    args: &Args,
    setup_s: f64,
    mut checks: Vec<String>,
) -> Outcome {
    let mut tally = OpTally::default();
    let mut wall = 0.0;
    let mut round_to_map = Vec::new();
    // Accuracy is averaged over the campaigns of one pass through the
    // round pool, a fixed amount of work, so it repeats exactly. The
    // timed campaigns run for `--seconds`; campaigns of the pass left
    // over after that run untimed, for accuracy only.
    let pass = campaign.pool.len() / campaign.rounds_per_campaign();
    let mut accs = Vec::new();
    let mut c = 0;
    while c == 0 || wall < args.seconds {
        match campaign.run(transport, c, None) {
            Ok(run) => {
                wall += run.end.duration_since(run.start).as_secs_f64();
                round_to_map.extend(run.round_to_map());
                for (size, report) in run.fleet_sizes.iter().zip(&run.outcome.reports) {
                    tally.round(*size, report);
                }
                if c < pass {
                    accs.push(accuracy(campaign, &run, &mut checks));
                }
            }
            Err(e) => {
                let inputs = campaign.campaign_rounds(c);
                tally.errored(inputs.iter().map(|r| r.vehicles.len()).sum());
                checks.push(e);
                break;
            }
        }
        c += 1;
    }
    for extra in c..pass {
        match campaign.run(transport, extra, None) {
            Ok(run) => accs.push(accuracy(campaign, &run, &mut checks)),
            Err(e) => checks.push(e),
        }
    }
    let p50 = median(&round_to_map).unwrap_or(f64::NAN);
    let (tail_p, tail_s) = tail(&round_to_map).unwrap_or((50.0, f64::NAN));
    let mut out = Outcome::new(tally, &checks);
    if accs.len() == pass {
        let avg = |f: fn(&Accuracy) -> f64| accs.iter().map(f).sum::<f64>() / pass as f64;
        let map_error = avg(|a| a.map_error_m);
        let connected = avg(|a| a.brr_connected);
        println!(
            "{}: over {pass} campaigns, map error {map_error:.2} m, count error {:.3}, BRR connected {connected:.3} with {:.1} interruptions",
            args.workload.name(),
            avg(|a| a.count_error),
            avg(|a| a.interruptions as f64),
        );
        out.set("map_error_m", map_error);
        out.set("brr_connected_frac", connected);
    }
    println!(
        "{}: {c} campaigns, {} rounds in {wall:.2} s; round-to-map p50 {p50:.3} s, tail p{tail_p} {tail_s:.3} s over {} rounds; {} of {} vehicle-rounds completed",
        args.workload.name(),
        round_to_map.len(),
        round_to_map.len(),
        tally.completed_count(),
        tally.attempted,
    );
    out.set(
        "ops_per_s",
        tally.completed_count() as f64 / wall.max(f64::MIN_POSITIVE),
    );
    out.set("latency_p50_ms", p50 * 1e3);
    out.set("latency_tail_ms", tail_s * 1e3);
    out.set("completed_frac", 1.0 - tally.fail_frac());
    out.set("setup_s", setup_s);
    out.set("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN));
    crate::report_checks(&checks);
    out
}

/// Counters gathered by the stage-by-stage replay.
#[derive(Default)]
struct ReplayCounts {
    readings: u64,
    estimates_out: u64,
    sense_busy_s: f64,
    frames: u64,
    bytes: u64,
    decode_failures: u64,
    patterns: u64,
    tasks: u64,
    accepted: u64,
    ingest: IngestStats,
    entries: u64,
    errors: Vec<String>,
}

impl ReplayCounts {
    /// Encodes and decodes one message under a `wire.codec` span; a
    /// frame that does not decode back to the message is a failure.
    fn codec<M: WireMessage + PartialEq>(
        &mut self,
        rec: &mut Recorder,
        parent: usize,
        id: u64,
        msg: &M,
    ) -> Option<M> {
        let start = Instant::now();
        let frame = msg.to_frame();
        let decoded = M::from_frame(&frame);
        rec.record("wire.codec", Some(parent), id, start, Instant::now());
        self.frames += 1;
        self.bytes += frame.len() as u64;
        match decoded {
            Ok(m) if &m == msg => Some(m),
            _ => {
                self.decode_failures += 1;
                None
            }
        }
    }
}

/// Server-side state the replay carries across a campaign's rounds.
struct ReplayState {
    map: Arc<GeoMap>,
    database: ShardedDatabase,
    snapshots: Option<SnapshotStore>,
}

/// Replays one round stage by stage through the layers' public calls,
/// one span per call, under a `replay` root span whose index it returns.
#[allow(clippy::too_many_arguments)]
fn replay_round(
    campaign: &Campaign,
    rec: &mut Recorder,
    id: u64,
    round_index: usize,
    input: &RoundInput,
    registry: &Registry,
    state: &mut ReplayState,
    workers: usize,
    counts: &mut ReplayCounts,
) -> usize {
    let config = PlatformConfig {
        seed: campaign.config.seed.wrapping_add(round_index as u64 * 1000),
        ..campaign.config
    };
    let mut vehicles: Vec<CrowdVehicle> = input
        .vehicles
        .iter()
        .map(|v| campaign.vehicle(v, Some(registry)))
        .collect();
    let root = rec.open("replay", None, id);

    // core: online CS in every vehicle, over the transport's worker
    // budget so the stage's wall time compares with the round's.
    let stage = rec.open("core.round", Some(root), id);
    let chunk = vehicles.len().div_ceil(workers.max(1)).max(1);
    let timings: Vec<(Instant, Instant, Result<usize, String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = vehicles
            .chunks_mut(chunk)
            .zip(input.vehicles.chunks(chunk))
            .map(|(vs, ins)| {
                s.spawn(move || {
                    vs.iter_mut()
                        .zip(ins)
                        .map(|(v, i)| {
                            let t0 = Instant::now();
                            let r = v
                                .sense(&i.readings)
                                .map(|()| v.estimates().len())
                                .map_err(|e| e.to_string());
                            (t0, Instant::now(), r)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sense worker panicked"))
            .collect()
    });
    rec.close(stage);
    for (t0, t1, r) in timings {
        rec.record("core.sense", Some(stage), id, t0, t1);
        counts.sense_busy_s += (t1 - t0).as_secs_f64();
        match r {
            Ok(n) => counts.estimates_out += n as u64,
            Err(e) => counts.errors.push(format!("sense failed: {e}")),
        }
    }
    counts.readings += input
        .vehicles
        .iter()
        .map(|v| v.readings.len() as u64)
        .sum::<u64>();

    // wire: every upload crosses the codec.
    let mut uploads = Vec::with_capacity(vehicles.len());
    for v in &vehicles {
        if let Some(ToServer::Upload(up)) =
            counts.codec(rec, root, id, &ToServer::Upload(v.upload()))
        {
            uploads.push(up);
        }
    }

    // crowd: candidate patterns and task assignment.
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut server = CrowdServer::new(campaign.segments.clone());
    let assigned = rec.time("crowd.assign", Some(root), id, || {
        for v in &vehicles {
            server.register(v.id());
        }
        for up in uploads {
            server
                .receive_upload(up)
                .map_err(|e| format!("upload rejected: {e}"))?;
        }
        server.generate_patterns(config.bootstrap_patterns, &mut rng);
        server
            .assign_tasks(config.workers_per_task, &mut rng)
            .map_err(|e| format!("assignment failed: {e}"))
    });
    let tasks = match assigned {
        Ok(t) => t,
        Err(e) => {
            counts.errors.push(e);
            rec.close(root);
            return root;
        }
    };
    counts.patterns += server.patterns().len() as u64;
    counts.tasks += tasks.values().map(|t| t.len() as u64).sum::<u64>();

    // wire and crowd: tasks down, labels, answers up.
    let by_id: BTreeMap<VehicleId, &CrowdVehicle> = vehicles.iter().map(|v| (v.id(), v)).collect();
    let mut answers: Vec<MappingAnswer> = Vec::new();
    for (vid, list) in &tasks {
        let Some(ToVehicle::Assign(list)) =
            counts.codec(rec, root, id, &ToVehicle::Assign(list.clone()))
        else {
            continue;
        };
        let v = by_id[vid];
        let mut vrng = ChaCha8Rng::seed_from_u64(config.seed.wrapping_add(u64::from(vid.0) + 1));
        let labels: Vec<MappingAnswer> = rec.time("crowd.label", Some(root), id, || {
            list.iter()
                .map(|t| v.answer(t, &campaign.segments, &mut vrng))
                .collect()
        });
        if let Some(ToServer::Answers(a)) = counts.codec(rec, root, id, &ToServer::Answers(labels))
        {
            answers.extend(a);
        }
    }

    // crowd: reliability inference, then fusion shard by shard.
    let inferred = rec.time("crowd.infer", Some(root), id, || {
        server.receive_answers(answers);
        server.infer(&mut rng)
    });
    match inferred {
        Ok(outcome) => counts.accepted += outcome.accepted_patterns.len() as u64,
        Err(e) => counts.errors.push(format!("inference failed: {e}")),
    }
    let fused: Vec<FusedAp> = rec.time("crowd.fuse", Some(root), id, || {
        server
            .finalize_sharded(config.merge_radius, config.spammer_cutoff)
            .to_vec()
    });

    // durability: the round-close snapshot of the campaign database.
    if let Some(snapshots) = state.snapshots.as_mut() {
        state
            .database
            .absorb(round_index, &campaign.segments, &fused);
        let written = rec.time("durability.snapshot", Some(root), id, || {
            snapshots.write(round_index, &state.database, false)
        });
        if let Err(e) = written {
            counts.errors.push(format!("snapshot failed: {e}"));
        }
    }

    // geomap: absorb and publish.
    let now = close_micros(round_index);
    let estimates = estimates_of_fused(&fused);
    let stats = rec.time("geomap.absorb", Some(root), id, || {
        state.map.absorb_estimates(now, &estimates)
    });
    counts.ingest.merged += stats.merged;
    counts.ingest.opened += stats.opened;
    counts.ingest.rejected += stats.rejected;
    rec.close(root);
    root
}

/// Sum of a counter over the reports of a campaign.
fn counter_sum(reports: &[PlatformReport], name: &str) -> f64 {
    reports
        .iter()
        .map(|r| r.metrics.counters.get(name).copied().unwrap_or(0) as f64)
        .sum()
}

/// The traced run: per campaign, the plain campaign (tracing off), a
/// stage-by-stage replay of its rounds (one span per layer call), and
/// the same campaign with the estimators' metrics recording on, one span
/// per round. Repeats while `--seconds` has not elapsed, at most
/// [`TRACED_CAMPAIGNS`] times (a fleet campaign records ~70k spans).
fn traced(
    campaign: &Campaign,
    transport: &FleetTransport,
    args: &Args,
    mut checks: Vec<String>,
) -> Outcome {
    let workers = transport.worker_budget();
    let replay_registry = Registry::new();
    let run_registry = Registry::new();
    let mut rec = Recorder::new();
    let mut counts = ReplayCounts::default();
    let mut tally = OpTally::default();
    let mut untraced_rounds = Vec::new();
    let mut traced_rounds = Vec::new();
    let mut publish = Vec::new();
    let mut replay_roots = Vec::new();
    let mut reports: Vec<PlatformReport> = Vec::new();
    let mut wal_bytes = 0;
    let mut first: Option<(UserDrive, f64)> = None;
    let started = Instant::now();
    let mut cycles = 0;
    while cycles == 0
        || (cycles < TRACED_CAMPAIGNS && started.elapsed().as_secs_f64() < args.seconds)
    {
        let c = cycles;
        match campaign.run(transport, c, None) {
            Ok(run) => untraced_rounds.extend(run.round_to_map()),
            Err(e) => {
                checks.push(e);
                break;
            }
        }
        let mut state = ReplayState {
            map: campaign.new_map(),
            database: ShardedDatabase::new(),
            snapshots: campaign.durable().then(SnapshotStore::in_memory),
        };
        for (r, input) in campaign.campaign_rounds(c).into_iter().enumerate() {
            let id = (c * campaign.rounds_per_campaign() + r) as u64;
            replay_roots.push(replay_round(
                campaign,
                &mut rec,
                id,
                r,
                input,
                &replay_registry,
                &mut state,
                workers,
                &mut counts,
            ));
        }
        counts.entries += state.map.len();
        let run = match campaign.run(transport, c, Some(&run_registry)) {
            Ok(run) => run,
            Err(e) => {
                checks.push(e);
                break;
            }
        };
        let mut previous = run.start;
        for (r, &(entered, returned)) in run.closes.iter().enumerate() {
            let id = (c * campaign.rounds_per_campaign() + r) as u64;
            let root = rec.record("transport.round", None, id, previous, returned);
            rec.record("geomap.publish", Some(root), id, entered, returned);
            previous = returned;
        }
        traced_rounds.extend(run.round_to_map());
        publish.extend(run.publish());
        for (size, report) in run.fleet_sizes.iter().zip(&run.outcome.reports) {
            tally.round(*size, report);
        }
        wal_bytes += run.wal_bytes;
        if first.is_none() {
            let served = Campaign::served(&run.map);
            let count_error = counting_error(campaign.truth.len(), served.len());
            first = Some((
                campaign.user_drive(&run.map, Some((&mut rec, 0))),
                count_error,
            ));
        }
        reports.extend(run.outcome.reports);
        cycles += 1;
    }
    checks.append(&mut counts.errors);

    let per = 1.0 / cycles.max(1) as f64;
    let layers = layer_self_times(rec.spans(), &replay_roots);
    let layer = |name: &str| layers.get(name).copied().unwrap_or(0.0);
    let round_s: f64 = traced_rounds.iter().sum();
    // The transport round covers sensing, the codec, crowd work, the
    // snapshot and the map publish; what the replayed layers leave over
    // is the round engine's own time.
    const REPLAYED: [&str; 5] = ["core", "wire", "crowd", "durability", "geomap"];
    let self_s = round_s - REPLAYED.iter().map(|l| layer(l)).sum::<f64>();
    let overhead = mean(&traced_rounds).unwrap_or(0.0) - mean(&untraced_rounds).unwrap_or(0.0);
    let share = |t: f64| if round_s > 0.0 { t / round_s } else { 0.0 };
    println!(
        "{} trace: {cycles} campaign(s), {} rounds, {round_s:.3} s in transport rounds; trace.overhead_s {overhead:+.4} per round",
        args.workload.name(),
        traced_rounds.len()
    );
    for (name, t) in REPLAYED
        .iter()
        .map(|&l| (l, layer(l)))
        .chain([("transport", self_s)])
    {
        println!(
            "  {name:<10} self {:>9.4} s per campaign, {:>5.1}% of the round span",
            t * per,
            100.0 * share(t)
        );
    }
    crate::write_trace(&rec, args);

    let span_sum = |name: &str| -> f64 {
        rec.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration())
            .sum::<f64>()
            * per
    };
    let snapshot = run_registry.snapshot();
    let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0) as f64 * per;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let mut out = Outcome::new(tally, &checks);
    out.set("core.sense_s", counts.sense_busy_s * per);
    out.set("core.readings", counts.readings as f64 * per);
    out.set("core.windows", counter("pipeline.windows_processed"));
    out.set(
        "core.solver_iterations",
        counter("pipeline.solver_iterations"),
    );
    out.set("core.unconverged", counter("pipeline.solver_unconverged"));
    out.set(
        "core.memo_hit_ratio",
        ratio(
            counter("pipeline.memo_hits"),
            counter("pipeline.memo_lookups"),
        ),
    );
    out.set("core.estimates_out", counts.estimates_out as f64 * per);
    out.set("core.share", share(layer("core")));
    out.set("wire.codec_s", span_sum("wire.codec"));
    out.set("wire.frames", counts.frames as f64 * per);
    out.set("wire.bytes", counts.bytes as f64 * per);
    out.set("wire.decode_failures", counts.decode_failures as f64 * per);
    out.set("wire.share", share(layer("wire")));
    out.set("crowd.assign_s", span_sum("crowd.assign"));
    out.set("crowd.label_s", span_sum("crowd.label"));
    out.set("crowd.infer_s", span_sum("crowd.infer"));
    out.set("crowd.fuse_s", span_sum("crowd.fuse"));
    out.set("crowd.patterns", counts.patterns as f64 * per);
    out.set("crowd.tasks", counts.tasks as f64 * per);
    out.set(
        "crowd.accepted_ratio",
        ratio(counts.accepted as f64, counts.patterns as f64),
    );
    out.set("crowd.share", share(layer("crowd")));
    out.set("transport.round_s", round_s * per);
    out.set("transport.self_s", self_s * per);
    out.set("transport.share", share(self_s));
    out.set(
        "transport.retries",
        counter_sum(&reports, "platform.retries") * per,
    );
    out.set(
        "transport.reassigned_tasks",
        reports
            .iter()
            .map(|r| r.reassigned_tasks as f64)
            .sum::<f64>()
            * per,
    );
    out.set(
        "transport.lost_label_slots",
        reports
            .iter()
            .map(|r| r.lost_label_slots as f64)
            .sum::<f64>()
            * per,
    );
    out.set(
        "transport.dead_vehicles",
        reports
            .iter()
            .map(|r| r.dead_vehicles().len() as f64)
            .sum::<f64>()
            * per,
    );
    out.set(
        "transport.quarantined",
        counter_sum(&reports, "platform.quarantine") * per,
    );
    out.set(
        "transport.faults_dropped",
        counter_sum(&reports, "platform.faults.dropped") * per,
    );
    out.set(
        "transport.faults_duplicated",
        counter_sum(&reports, "platform.faults.duplicated") * per,
    );
    out.set("transport.not_completed", tally.not_completed as f64 * per);
    out.set(
        "durability.appends",
        counter_sum(&reports, "durability.appends") * per,
    );
    out.set("durability.wal_bytes", wal_bytes as f64 * per);
    out.set("durability.snapshot_s", span_sum("durability.snapshot"));
    out.set("durability.share", share(layer("durability")));
    out.set("geomap.absorb_s", span_sum("geomap.absorb"));
    out.set(
        "geomap.publish_p50_ms",
        median(&publish).unwrap_or(0.0) * 1e3,
    );
    out.set(
        "geomap.merge_ratio",
        ratio(
            counts.ingest.merged as f64,
            (counts.ingest.merged + counts.ingest.opened) as f64,
        ),
    );
    out.set("geomap.rejected", counts.ingest.rejected as f64 * per);
    out.set("geomap.entries", counts.entries as f64 * per);
    out.set("geomap.share", share(layer("geomap")));
    if let Some((user, count_error)) = &first {
        out.set("geomap.query_s", user.query_s);
        out.set("geomap.results_per_query", user.results as f64);
        out.set("handoff.simulate_s", user.simulate_s);
        if let Ok(t) = &user.trace {
            out.set("handoff.interruptions", t.interruptions() as f64);
        }
        out.set("map.count_error", *count_error);
    }
    out.set("ops.fail_frac", tally.fail_frac());
    out.set("gen.readings", campaign.readings() as f64);
    out.set("trace.overhead_s", overhead);
    crate::report_checks(&checks);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        for kind in [Kind::Metro, Kind::Fleet] {
            let a = Campaign::generate(kind, 7);
            assert!(
                a == Campaign::generate(kind, 7),
                "{kind:?} differs on one seed"
            );
            let b = Campaign::generate(kind, 8);
            assert!(a.pool != b.pool, "{kind:?} ignores its seed");
        }
    }

    #[test]
    fn nearest_distances_ignore_extra_entries() {
        let truth = [Point::new(0.0, 0.0), Point::new(100.0, 0.0)];
        let served = [
            Point::new(3.0, 4.0),
            Point::new(100.0, 1.0),
            Point::new(50.0, 50.0),
        ];
        assert_eq!(nearest_distances(&truth, &served), vec![5.0, 1.0]);
        assert!(nearest_distances(&truth, &[])[0].is_infinite());
    }
}
