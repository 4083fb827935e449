//! k-means++ clustering with restarts.
//!
//! OtterTune prunes its ~hundreds of runtime metrics by factor-analysing
//! them and then k-means-clustering the factor scores, keeping one
//! representative metric per cluster. This module provides that clustering
//! step (and is reused for workload grouping).

use crate::matrix::dist2;
use rand::rngs::StdRng;
use rand::RngExt;

/// Result of a k-means run.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// Cluster centroids, `k x dim`.
    pub centroids: Vec<Vec<f64>>,
    /// Cluster assignment per input point.
    pub assignments: Vec<usize>,
    /// Sum of squared distances of points to their centroid.
    pub inertia: f64,
    /// Lloyd iterations performed in the winning restart.
    pub iterations: usize,
}

/// k-means++ seeding: first centroid uniform, subsequent ones sampled with
/// probability proportional to squared distance from the nearest chosen
/// centroid.
fn seed_plus_plus(points: &[Vec<f64>], k: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
    let n = points.len();
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    centroids.push(points[rng.random_range(0..n)].clone());
    let mut d2: Vec<f64> = points.iter().map(|p| dist2(p, &centroids[0])).collect();
    while centroids.len() < k {
        let total: f64 = d2.iter().sum();
        let next = if total <= 0.0 {
            // All points coincide with chosen centroids; pick uniformly.
            points[rng.random_range(0..n)].clone()
        } else {
            let mut target = rng.random_range(0.0..total);
            let mut chosen = n - 1;
            for (i, &d) in d2.iter().enumerate() {
                if target < d {
                    chosen = i;
                    break;
                }
                target -= d;
            }
            points[chosen].clone()
        };
        for (i, p) in points.iter().enumerate() {
            d2[i] = d2[i].min(dist2(p, &next));
        }
        centroids.push(next);
    }
    centroids
}

fn lloyd(points: &[Vec<f64>], mut centroids: Vec<Vec<f64>>, max_iter: usize) -> KMeansResult {
    let n = points.len();
    let k = centroids.len();
    let dim = points[0].len();
    let mut assignments = vec![0usize; n];
    let mut iterations = 0;
    for it in 0..max_iter {
        iterations = it + 1;
        // Assign.
        let mut changed = false;
        for (i, p) in points.iter().enumerate() {
            let mut best = 0;
            let mut best_d = f64::INFINITY;
            for (c, centroid) in centroids.iter().enumerate() {
                let d = dist2(p, centroid);
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            if assignments[i] != best {
                assignments[i] = best;
                changed = true;
            }
        }
        if !changed && it > 0 {
            break;
        }
        // Update.
        let mut sums = vec![vec![0.0; dim]; k];
        let mut counts = vec![0usize; k];
        for (i, p) in points.iter().enumerate() {
            let a = assignments[i];
            counts[a] += 1;
            for (s, v) in sums[a].iter_mut().zip(p) {
                *s += v;
            }
        }
        for c in 0..k {
            if counts[c] > 0 {
                for s in &mut sums[c] {
                    *s /= counts[c] as f64;
                }
                centroids[c] = sums[c].clone();
            }
            // Empty clusters keep their previous centroid.
        }
    }
    let inertia = points
        .iter()
        .zip(&assignments)
        .map(|(p, &a)| dist2(p, &centroids[a]))
        .sum();
    KMeansResult {
        centroids,
        assignments,
        inertia,
        iterations,
    }
}

/// Runs k-means++ with `restarts` independent seedings and returns the
/// lowest-inertia result.
///
/// # Panics
/// Panics if `k == 0`, `points` is empty, or `k > points.len()`.
pub fn kmeans(
    points: &[Vec<f64>],
    k: usize,
    restarts: usize,
    max_iter: usize,
    rng: &mut StdRng,
) -> KMeansResult {
    assert!(k > 0, "kmeans: k must be positive");
    assert!(!points.is_empty(), "kmeans: empty input");
    assert!(k <= points.len(), "kmeans: k exceeds point count");
    let mut best: Option<KMeansResult> = None;
    for _ in 0..restarts.max(1) {
        let seeds = seed_plus_plus(points, k, rng);
        let r = lloyd(points, seeds, max_iter);
        let better = best.as_ref().map(|b| r.inertia < b.inertia).unwrap_or(true);
        if better {
            best = Some(r);
        }
    }
    // lint:allow(unwrap) restarts.max(1) guarantees the loop body ran
    best.expect("at least one restart")
}

/// Index of the point closest to each centroid — OtterTune keeps the
/// *metric* nearest each cluster centre as the cluster representative.
pub fn representatives(points: &[Vec<f64>], result: &KMeansResult) -> Vec<usize> {
    result
        .centroids
        .iter()
        .enumerate()
        .map(|(c, centroid)| {
            let mut best = 0;
            let mut best_d = f64::INFINITY;
            for (i, p) in points.iter().enumerate() {
                if result.assignments[i] != c {
                    continue;
                }
                let d = dist2(p, centroid);
                if d < best_d {
                    best_d = d;
                    best = i;
                }
            }
            best
        })
        .collect()
}

/// Picks `k` by minimizing a crude "elbow" criterion: the largest second
/// difference of inertia over `k = 1..=k_max`.
pub fn elbow_k(points: &[Vec<f64>], k_max: usize, rng: &mut StdRng) -> usize {
    let k_max = k_max.min(points.len()).max(1);
    let inertias: Vec<f64> = (1..=k_max)
        .map(|k| kmeans(points, k, 3, 50, rng).inertia)
        .collect();
    if inertias.len() < 3 {
        return inertias.len();
    }
    let mut best_k = 2;
    let mut best_drop = f64::NEG_INFINITY;
    for k in 1..inertias.len() - 1 {
        let second_diff = inertias[k - 1] - 2.0 * inertias[k] + inertias[k + 1];
        if second_diff > best_drop {
            best_drop = second_diff;
            best_k = k + 1;
        }
    }
    best_k
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn three_blobs(rng: &mut StdRng) -> Vec<Vec<f64>> {
        let centers = [[0.0, 0.0], [10.0, 0.0], [5.0, 8.0]];
        let mut pts = Vec::new();
        for c in &centers {
            for _ in 0..30 {
                pts.push(vec![
                    c[0] + rng.random_range(-0.5..0.5),
                    c[1] + rng.random_range(-0.5..0.5),
                ]);
            }
        }
        pts
    }

    #[test]
    fn recovers_three_blobs() {
        let mut rng = StdRng::seed_from_u64(1);
        let pts = three_blobs(&mut rng);
        let r = kmeans(&pts, 3, 5, 100, &mut rng);
        // Each blob of 30 points should be pure.
        for blob in 0..3 {
            let first = r.assignments[blob * 30];
            for i in 0..30 {
                assert_eq!(r.assignments[blob * 30 + i], first, "blob {blob} impure");
            }
        }
        assert!(r.inertia < 60.0, "inertia={}", r.inertia);
    }

    #[test]
    fn inertia_monotone_in_k() {
        let mut rng = StdRng::seed_from_u64(2);
        let pts = three_blobs(&mut rng);
        let i1 = kmeans(&pts, 1, 5, 100, &mut rng).inertia;
        let i3 = kmeans(&pts, 3, 5, 100, &mut rng).inertia;
        let i6 = kmeans(&pts, 6, 5, 100, &mut rng).inertia;
        assert!(i1 > i3);
        assert!(i3 >= i6);
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let mut rng = StdRng::seed_from_u64(3);
        let pts = vec![vec![0.0], vec![1.0], vec![2.0]];
        let r = kmeans(&pts, 3, 5, 50, &mut rng);
        assert!(r.inertia < 1e-12);
    }

    #[test]
    fn representatives_belong_to_cluster() {
        let mut rng = StdRng::seed_from_u64(4);
        let pts = three_blobs(&mut rng);
        let r = kmeans(&pts, 3, 5, 100, &mut rng);
        let reps = representatives(&pts, &r);
        assert_eq!(reps.len(), 3);
        for (c, &rep) in reps.iter().enumerate() {
            assert_eq!(r.assignments[rep], c);
        }
    }

    #[test]
    fn elbow_finds_three() {
        let mut rng = StdRng::seed_from_u64(5);
        let pts = three_blobs(&mut rng);
        let k = elbow_k(&pts, 8, &mut rng);
        assert!((2..=4).contains(&k), "elbow k={k}");
    }

    #[test]
    fn identical_points_do_not_crash() {
        let mut rng = StdRng::seed_from_u64(6);
        let pts = vec![vec![1.0, 1.0]; 10];
        let r = kmeans(&pts, 3, 2, 20, &mut rng);
        assert!(r.inertia < 1e-12);
    }
}
