//! Seeded request plans for the serving workloads.
//!
//! Request `i` of client `c` is a pure function of the seed, the client,
//! `i`, and the fixture's series (themselves a function of the seed), so
//! a plan is unbounded and every run of a seed issues the same requests
//! in the same order. Requests come in shuffled blocks with a fixed mix,
//! so each stretch of a run carries the same share of every request
//! kind; region and type scopes walk a seeded permutation so a run covers
//! them evenly instead of piling onto a few.

use crate::sys::Rng;
use crate::Workload;

/// The dimension keys of one series in the fixture archive.
#[derive(Debug, Clone)]
pub struct SeriesKey {
    /// `instance_type` dimension.
    pub instance_type: String,
    /// `region` dimension.
    pub region: String,
    /// `az` dimension, when the table has one.
    pub az: Option<String>,
}

/// What the plans draw from: the fixture archive's series and time span.
#[derive(Debug, Clone, Default)]
pub struct Universe {
    /// Series of the `sps` table.
    pub sps: Vec<SeriesKey>,
    /// Series of the `price` table.
    pub price: Vec<SeriesKey>,
    /// Series of the `advisor` table.
    pub advisor: Vec<SeriesKey>,
    /// Distinct regions of `sps`, sorted.
    pub regions: Vec<String>,
    /// Distinct instance types of `sps`, sorted.
    pub types: Vec<String>,
    /// Last timestamp in the archive (seconds).
    pub t_max: u64,
}

/// One kind of request in a workload's mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    // scan
    Unfiltered,
    RegionQuery,
    RegionWindow,
    TypeQuery,
    TypeWindow,
    Scoped,
    // lookup
    SpsAzQuery,
    SpsRegionQuery,
    PriceQuery,
    AdvisorQuery,
    SpsLatest,
    PriceLatest,
    SpsAt,
    AdvisorAt,
    SpsRegionWindow,
    SpsAzWindow,
    Ops,
}

/// `scan`: 3 in 10 unfiltered, 5 region-scoped row queries, and 2 cheap
/// scoped requests taking turns as region windows, type queries and type
/// windows. The region queries straddle the median, so the median sits
/// inside one cost population instead of on the edge between two.
const SCAN_BLOCK: [Kind; 10] = [
    Kind::Unfiltered,
    Kind::Unfiltered,
    Kind::Unfiltered,
    Kind::RegionQuery,
    Kind::RegionQuery,
    Kind::RegionQuery,
    Kind::RegionQuery,
    Kind::RegionQuery,
    Kind::Scoped,
    Kind::Scoped,
];

/// The cheap scoped requests [`Kind::Scoped`] takes turns among.
const SCOPED_TURNS: [Kind; 3] = [Kind::RegionWindow, Kind::TypeQuery, Kind::TypeWindow];

/// Row limit of region queries. It is fixed, so their cost varies only
/// with the region's size; varying it too spread the median across runs.
const REGION_LIMIT: usize = 1000;

/// `lookup`: 18 in 20 narrow row requests, 2 operator endpoints.
const LOOKUP_BLOCK: [Kind; 20] = [
    Kind::SpsAzQuery,
    Kind::SpsAzQuery,
    Kind::SpsAzQuery,
    Kind::SpsAzQuery,
    Kind::SpsRegionQuery,
    Kind::SpsRegionQuery,
    Kind::SpsRegionQuery,
    Kind::PriceQuery,
    Kind::AdvisorQuery,
    Kind::SpsLatest,
    Kind::SpsLatest,
    Kind::PriceLatest,
    Kind::SpsAt,
    Kind::SpsAt,
    Kind::AdvisorAt,
    Kind::SpsRegionWindow,
    Kind::SpsRegionWindow,
    Kind::SpsAzWindow,
    Kind::Ops,
    Kind::Ops,
];

/// The operator endpoints, visited in turn.
const OPS_PATHS: [&str; 4] = ["/health", "/tables", "/stats", "/metrics"];

const AGGS: [&str; 4] = ["mean", "max", "min", "count"];

/// Requests a workload's clients issue.
#[derive(Debug, Clone)]
pub struct Plan {
    workload: Workload,
    seed: u64,
    universe: Universe,
    region_order: Vec<usize>,
    type_order: Vec<usize>,
}

impl Plan {
    /// The plan for `workload` under `seed` over `universe`.
    pub fn new(workload: Workload, seed: u64, universe: Universe) -> Self {
        let mut rng = Rng::new(seed, 0x5ca1);
        let mut region_order: Vec<usize> = (0..universe.regions.len()).collect();
        rng.shuffle(&mut region_order);
        let mut type_order: Vec<usize> = (0..universe.types.len()).collect();
        rng.shuffle(&mut type_order);
        Plan {
            workload,
            seed,
            universe,
            region_order,
            type_order,
        }
    }

    fn block(&self) -> &'static [Kind] {
        match self.workload {
            Workload::Lookup => &LOOKUP_BLOCK,
            _ => &SCAN_BLOCK,
        }
    }

    /// The path of request `index` of `client`.
    pub fn request(&self, client: usize, index: usize) -> String {
        let block = self.block();
        let (b, pos) = (index / block.len(), index % block.len());
        let mut order: Vec<Kind> = block.to_vec();
        Rng::new(self.seed, ((client as u64) << 40) | b as u64).shuffle(&mut order);
        let kind = order[pos];
        // The ordinal of this kind among the client's requests so far
        // steps the region/type walks and the operator-endpoint cycle.
        let ordinal = b * block.iter().filter(|k| **k == kind).count()
            + order[..pos].iter().filter(|k| **k == kind).count();
        let mut rng = Rng::new(self.seed ^ 0xa11ce, ((client as u64) << 40) | index as u64);
        if kind == Kind::Scoped {
            let turn = SCOPED_TURNS[ordinal % SCOPED_TURNS.len()];
            return self.path(turn, client, ordinal / SCOPED_TURNS.len(), &mut rng);
        }
        self.path(kind, client, ordinal, &mut rng)
    }

    fn region(&self, client: usize, ordinal: usize) -> &str {
        let n = self.region_order.len();
        &self.universe.regions[self.region_order[(ordinal + client * n / 2) % n]]
    }

    fn instance_type(&self, client: usize, ordinal: usize) -> &str {
        let n = self.type_order.len();
        &self.universe.types[self.type_order[(ordinal + client * n / 2) % n]]
    }

    fn path(&self, kind: Kind, client: usize, ordinal: usize, rng: &mut Rng) -> String {
        let u = &self.universe;
        let pick = |rng: &mut Rng, series: &[SeriesKey]| series[rng.below(series.len())].clone();
        let window = |rng: &mut Rng| [3_600u64, 21_600, 86_400][rng.below(3)];
        let agg = |rng: &mut Rng| AGGS[rng.below(AGGS.len())];
        let small_limit = |rng: &mut Rng| 1 + rng.below(20);
        let at = |rng: &mut Rng| rng.next_u64() % (u.t_max + 1);
        let az = |s: &SeriesKey| s.az.clone().unwrap_or_default();
        match kind {
            Kind::Unfiltered => {
                format!("/query?table=sps&limit={}", [10, 100, 1000][rng.below(3)])
            }
            Kind::RegionQuery => format!(
                "/query?table=sps&region={}&limit={REGION_LIMIT}",
                self.region(client, ordinal)
            ),
            Kind::RegionWindow => format!(
                "/window?table=sps&region={}&window={}&agg={}",
                self.region(client, ordinal + 7),
                window(rng),
                agg(rng)
            ),
            Kind::TypeQuery => format!(
                "/query?table=sps&instance_type={}",
                self.instance_type(client, ordinal)
            ),
            Kind::TypeWindow => format!(
                "/window?table=sps&instance_type={}&window={}&agg={}",
                self.instance_type(client, ordinal + 101),
                window(rng),
                agg(rng)
            ),
            Kind::SpsAzQuery => {
                let s = pick(rng, &u.sps);
                format!(
                    "/query?table=sps&instance_type={}&az={}&limit={}",
                    s.instance_type,
                    az(&s),
                    small_limit(rng)
                )
            }
            Kind::SpsRegionQuery => {
                let s = pick(rng, &u.sps);
                format!(
                    "/query?table=sps&instance_type={}&region={}&limit={}",
                    s.instance_type,
                    s.region,
                    small_limit(rng) * 2
                )
            }
            Kind::PriceQuery => {
                let s = pick(rng, &u.price);
                format!(
                    "/query?table=price&instance_type={}&az={}&limit={}",
                    s.instance_type,
                    az(&s),
                    small_limit(rng)
                )
            }
            Kind::AdvisorQuery => {
                let s = pick(rng, &u.advisor);
                format!(
                    "/query?table=advisor&instance_type={}&region={}&limit={}",
                    s.instance_type,
                    s.region,
                    small_limit(rng)
                )
            }
            Kind::SpsLatest => {
                let s = pick(rng, &u.sps);
                format!(
                    "/latest?table=sps&instance_type={}&az={}",
                    s.instance_type,
                    az(&s)
                )
            }
            Kind::PriceLatest => {
                let s = pick(rng, &u.price);
                format!(
                    "/latest?table=price&instance_type={}&region={}",
                    s.instance_type, s.region
                )
            }
            Kind::SpsAt => {
                let s = pick(rng, &u.sps);
                format!(
                    "/at?table=sps&instance_type={}&az={}&timestamp={}",
                    s.instance_type,
                    az(&s),
                    at(rng)
                )
            }
            Kind::AdvisorAt => {
                let s = pick(rng, &u.advisor);
                format!(
                    "/at?table=advisor&instance_type={}&region={}&timestamp={}",
                    s.instance_type,
                    s.region,
                    at(rng)
                )
            }
            Kind::SpsRegionWindow => {
                let s = pick(rng, &u.sps);
                format!(
                    "/window?table=sps&instance_type={}&region={}&window={}&agg={}",
                    s.instance_type,
                    s.region,
                    window(rng),
                    agg(rng)
                )
            }
            Kind::SpsAzWindow => {
                let s = pick(rng, &u.sps);
                format!(
                    "/window?table=sps&instance_type={}&az={}&window={}&agg={}",
                    s.instance_type,
                    az(&s),
                    window(rng),
                    agg(rng)
                )
            }
            Kind::Ops => OPS_PATHS[(ordinal + client) % OPS_PATHS.len()].to_owned(),
            Kind::Scoped => unreachable!("resolved to its turn in Plan::request"),
        }
    }
}

/// Whether `path` is a row route, whose body must match the in-process
/// gateway byte for byte.
pub fn is_row_route(path: &str) -> bool {
    let route = path.split('?').next().unwrap_or(path);
    matches!(route, "/query" | "/latest" | "/at" | "/window")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn universe() -> Universe {
        let key = |t: &str, r: &str, az: Option<&str>| SeriesKey {
            instance_type: t.to_owned(),
            region: r.to_owned(),
            az: az.map(str::to_owned),
        };
        Universe {
            sps: vec![
                key("m5.large", "us-east-1", Some("us-east-1a")),
                key("c5.xlarge", "eu-west-1", Some("eu-west-1b")),
            ],
            price: vec![key("m5.large", "us-east-1", Some("us-east-1a"))],
            advisor: vec![key("m5.large", "us-east-1", None)],
            regions: vec!["eu-west-1".into(), "us-east-1".into()],
            types: vec!["c5.xlarge".into(), "m5.large".into()],
            t_max: 86_400,
        }
    }

    #[test]
    fn plans_are_a_function_of_the_seed() {
        let a = Plan::new(Workload::Lookup, 3, universe());
        let b = Plan::new(Workload::Lookup, 3, universe());
        let c = Plan::new(Workload::Lookup, 4, universe());
        let run = |p: &Plan| (0..60).map(|i| p.request(i % 2, i)).collect::<Vec<_>>();
        assert_eq!(run(&a), run(&b));
        assert_ne!(run(&a), run(&c));
    }

    #[test]
    fn every_block_keeps_the_mix() {
        let p = Plan::new(Workload::Scan, 9, universe());
        for client in 0..2 {
            for b in 0..5 {
                let unfiltered = (b * 10..b * 10 + 10)
                    .map(|i| p.request(client, i))
                    .filter(|path| path.starts_with("/query?table=sps&limit="))
                    .count();
                assert_eq!(unfiltered, 3);
            }
        }
        let l = Plan::new(Workload::Lookup, 9, universe());
        let ops = (0..40)
            .map(|i| l.request(0, i))
            .filter(|path| !is_row_route(path))
            .count();
        assert_eq!(ops, 4);
    }
}
