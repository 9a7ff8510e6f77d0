//! Everything the workloads feed the product, generated from `--seed`:
//! the zoo's request vectors, the session order, seeded variants of zoo
//! layers, never-seen-before novel shapes, and tensor contents. The
//! product sees only these inputs, never the seed itself.

use conv_iolb::autotune::plan::{algo_candidates, anchor_fingerprint, ANCHOR_FLOOR};
use conv_iolb::cnn::{fusion, models, ConvLayer, Network};
use conv_iolb::core::optimality::TileKind;
use conv_iolb::core::shapes::ConvShape;
use conv_iolb::gpusim::DeviceSpec;
use conv_iolb::records::Workload;
use conv_iolb::service::{ServeResult, TuneRequest};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// The device every workload tunes for.
pub fn device() -> DeviceSpec {
    DeviceSpec::v100()
}

fn kinds(layer: &ConvLayer) -> Vec<TileKind> {
    algo_candidates(&layer.shape).into_iter().map(|(kind, _)| kind).collect()
}

/// One network's two sessions: every layer × algorithm candidate bare,
/// and the same under its fused conv→relu(→pool) chain. Both vectors
/// are layer-major, so results zip back onto `net.layers`.
pub struct NetPlan {
    pub net: Network,
    pub bare: Vec<TuneRequest>,
    pub fused: Vec<TuneRequest>,
}

impl NetPlan {
    pub fn new(net: Network) -> Self {
        let bare = net
            .layers
            .iter()
            .flat_map(|l| kinds(l).into_iter().map(|kind| TuneRequest::bare(l.shape, kind)))
            .collect();
        let fused = fusion::fused_requests(&net, kinds);
        Self { net, bare, fused }
    }

    /// Σ over layers of the best served cost among the layer's
    /// candidates × the layer's repeat count; `None` when a layer has no
    /// feasible candidate or the results do not line up with the plan.
    pub fn cost_ms(&self, results: &[Option<ServeResult>]) -> Option<f64> {
        let mut at = 0;
        let mut total = 0.0;
        for layer in &self.net.layers {
            let n = kinds(layer).len();
            let best = results
                .get(at..at + n)?
                .iter()
                .flatten()
                .map(|r| r.cost_ms)
                .min_by(f64::total_cmp)?;
            total += best * layer.repeat as f64;
            at += n;
        }
        (at == results.len()).then_some(total)
    }
}

/// Where ResNet-18 — the network the exec stage runs — sits in [`zoo`].
pub const RESNET18: usize = 2;

/// The six zoo networks, in `models::all_networks` order.
pub fn zoo() -> Vec<NetPlan> {
    models::all_networks().into_iter().map(NetPlan::new).collect()
}

/// A balanced session order: every one of `kinds` items appears equally
/// often (so the work per round is the same for every seed), shuffled.
pub fn session_order(sessions: usize, kinds: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..sessions).map(|i| i % kinds).collect();
    order.shuffle(rng);
    order
}

fn workload(shape: ConvShape, device: &DeviceSpec) -> Workload {
    Workload::new(shape, TileKind::Direct, device.name, device.smem_per_sm)
}

/// Seeded source of shapes no zoo network has: *in-bucket* jitters of
/// zoo layers (same anchor bucket as a tuned zoo layer, different exact
/// fingerprint — the anchored-transfer path) and *out-of-bucket* shapes
/// whose anchor bucket nothing tuned so far occupies (the inline-tune
/// path). No shape is handed out twice.
pub struct NovelShapes {
    rng: StdRng,
    device: DeviceSpec,
    donors: Vec<ConvShape>,
    exact: HashSet<String>,
    buckets: HashSet<String>,
}

/// A uniformly drawn extent from `d`'s anchor bucket: `d` itself at or
/// below the floor, else `(p/2, p]` for the next power of two `p`.
fn jitter_in_bucket(d: usize, rng: &mut StdRng) -> usize {
    if d <= ANCHOR_FLOOR {
        return d;
    }
    let top = d.next_power_of_two();
    rng.gen_range(top / 2 + 1..top + 1)
}

impl NovelShapes {
    pub fn new(seed: u64, zoo: &[NetPlan], device: &DeviceSpec) -> Self {
        let mut donors = Vec::new();
        let mut exact = HashSet::new();
        let mut buckets = HashSet::new();
        for layer in zoo.iter().flat_map(|p| &p.net.layers) {
            let w = workload(layer.shape, device);
            if exact.insert(w.fingerprint()) {
                donors.push(layer.shape);
            }
            buckets.insert(anchor_fingerprint(&w, ANCHOR_FLOOR));
        }
        // Shapes with nothing to jitter (every data extent at or below
        // the anchor floor) cannot donate.
        donors.retain(|s| s.cin.max(s.cout).max(s.hin).max(s.win) > ANCHOR_FLOOR);
        Self { rng: StdRng::seed_from_u64(seed), device: device.clone(), donors, exact, buckets }
    }

    /// A channel-jittered bucket-mate of a zoo layer. Spatial extents
    /// stay as the donor has them, so the donor's tile still divides the
    /// output and the projection cannot fall off the target's lattice.
    pub fn in_bucket(&mut self) -> ConvShape {
        loop {
            let donor = self.donors[self.rng.gen_range(0..self.donors.len())];
            let shape = ConvShape {
                cin: jitter_in_bucket(donor.cin, &mut self.rng),
                cout: jitter_in_bucket(donor.cout, &mut self.rng),
                ..donor
            };
            if self.exact.insert(workload(shape, &self.device).fingerprint()) {
                return shape;
            }
        }
    }

    /// A shape in an anchor bucket that holds no record yet; the bucket
    /// counts as occupied from here on.
    pub fn out_of_bucket(&mut self) -> ConvShape {
        loop {
            let k = [1usize, 3, 5][self.rng.gen_range(0..3usize)];
            let shape = ConvShape {
                batch: self.rng.gen_range(1..3),
                cin: self.rng.gen_range(17..161),
                hin: self.rng.gen_range(9..41),
                win: self.rng.gen_range(9..41),
                cout: self.rng.gen_range(17..161),
                kh: k,
                kw: k,
                stride: self.rng.gen_range(1..3),
                pad: k / 2,
            };
            let w = workload(shape, &self.device);
            if self.buckets.insert(anchor_fingerprint(&w, ANCHOR_FLOOR)) {
                self.exact.insert(w.fingerprint());
                return shape;
            }
        }
    }

    /// One novel session: four single-layer direct requests, two
    /// in-bucket then two out-of-bucket.
    pub fn session(&mut self) -> Vec<TuneRequest> {
        let shapes =
            [self.in_bucket(), self.in_bucket(), self.out_of_bucket(), self.out_of_bucket()];
        shapes.into_iter().map(|s| TuneRequest::bare(s, TileKind::Direct)).collect()
    }

    /// `count` in-bucket variants as a pseudo-network: the seeded part
    /// of a tuning plan (new models are mostly re-sized known layers).
    pub fn variants(&mut self, count: usize) -> NetPlan {
        let layers = (0..count).map(|i| ConvLayer::new(format!("variant{i}"), self.in_bucket()));
        NetPlan::new(Network { name: "variants", layers: layers.collect() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprints(requests: &[TuneRequest]) -> Vec<String> {
        let d = device();
        requests.iter().map(|r| workload(r.shape, &d).fingerprint()).collect()
    }

    #[test]
    fn same_seed_same_shapes_and_another_seed_differs() {
        let zoo = zoo();
        let draw = |seed| {
            let mut g = NovelShapes::new(seed, &zoo, &device());
            (0..20).flat_map(|_| g.session()).collect::<Vec<_>>()
        };
        assert_eq!(draw(11), draw(11));
        assert_ne!(draw(11), draw(12));
    }

    #[test]
    fn novel_shapes_are_valid_unseen_and_never_repeat() {
        let zoo = zoo();
        let d = device();
        let mut seen: HashSet<String> = zoo
            .iter()
            .flat_map(|p| &p.net.layers)
            .map(|l| workload(l.shape, &d).fingerprint())
            .collect();
        let zoo_buckets: HashSet<String> = zoo
            .iter()
            .flat_map(|p| &p.net.layers)
            .map(|l| anchor_fingerprint(&workload(l.shape, &d), ANCHOR_FLOOR))
            .collect();
        let mut g = NovelShapes::new(5, &zoo, &d);
        let mut out_buckets = HashSet::new();
        for _ in 0..400 {
            let session = g.session();
            assert_eq!(session.len(), 4);
            for (i, (request, fp)) in session.iter().zip(fingerprints(&session)).enumerate() {
                request.shape.validate().expect("a valid ConvShape");
                assert!(seen.insert(fp.clone()), "{fp} collides with the zoo or an earlier shape");
                let bucket = anchor_fingerprint(&workload(request.shape, &d), ANCHOR_FLOOR);
                if i < 2 {
                    assert!(zoo_buckets.contains(&bucket), "{fp} left its donor's bucket");
                } else {
                    assert!(!zoo_buckets.contains(&bucket), "{fp} landed in a zoo bucket");
                    assert!(out_buckets.insert(bucket), "{fp} reuses an out-of-bucket bucket");
                }
            }
        }
    }

    #[test]
    fn the_zoo_has_six_networks_with_resnet18_where_the_constant_says() {
        let zoo = zoo();
        assert_eq!(zoo.len(), 6);
        assert_eq!(zoo[RESNET18].net.name, "ResNet-18");
        assert_eq!(zoo[RESNET18].net.layers.len(), 14);
    }

    #[test]
    fn session_order_is_balanced_and_seeded() {
        let order = session_order(600, 6, &mut StdRng::seed_from_u64(3));
        for kind in 0..6 {
            assert_eq!(order.iter().filter(|&&k| k == kind).count(), 100);
        }
        assert_eq!(order, session_order(600, 6, &mut StdRng::seed_from_u64(3)));
        assert_ne!(order, session_order(600, 6, &mut StdRng::seed_from_u64(4)));
    }

    #[test]
    fn plan_cost_takes_the_best_candidate_times_the_repeat() {
        use conv_iolb::dataflow::ScheduleConfig;
        use conv_iolb::service::ServeSource;
        use conv_iolb::tensor::Layout;
        let served = |cost_ms| {
            let config = ScheduleConfig {
                x: 1,
                y: 1,
                z: 1,
                nxt: 1,
                nyt: 1,
                nzt: 1,
                sb_bytes: 8 * 1024,
                layout: Layout::Chw,
            };
            Some(ServeResult {
                config,
                cost_ms,
                source: ServeSource::ShardHit,
                fresh_measurements: 0,
                cache_hits: 0,
                fused: false,
            })
        };
        let plan = NetPlan::new(Network {
            name: "toy",
            layers: vec![
                ConvLayer::repeated("a", ConvShape::square(64, 28, 64, 3, 1, 1), 3),
                ConvLayer::new("b", ConvShape::square(64, 28, 64, 1, 1, 0)),
            ],
        });
        assert_eq!(plan.bare.len(), 4, "3x3/s1 has three candidates, 1x1 has one");
        let results = [served(5.0), None, served(2.0), served(7.0)];
        assert_eq!(plan.cost_ms(&results), Some(2.0 * 3.0 + 7.0));
        assert_eq!(plan.cost_ms(&[None, None, None, served(7.0)]), None, "layer a infeasible");
        assert_eq!(plan.cost_ms(&results[..3]), None, "misaligned results");
    }
}
