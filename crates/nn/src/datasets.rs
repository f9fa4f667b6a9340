//! Synthetic labeled image datasets.
//!
//! Offline substitution for MNIST/CIFAR (see DESIGN.md §2): each class is a
//! random low-frequency prototype pattern; samples are spatially jittered,
//! noisy instances of their class prototype. The task is easily learnable by
//! small CNNs (translation-tolerant local features), which is what the
//! paper's accuracy experiments require: a baseline that trains to high
//! accuracy, collapses under the Eq. 5 projection, and recovers with
//! retraining.

use cscnn_rng::rngs::StdRng;
use cscnn_rng::seq::SliceRandom;
use cscnn_rng::{Rng, SeedableRng};
use cscnn_tensor::Tensor;

/// An in-memory synthetic classification dataset of `[C, H, W]` images.
#[derive(Clone, Debug)]
pub struct SyntheticImages {
    channels: usize,
    height: usize,
    width: usize,
    classes: usize,
    /// Flattened images, `len = n * c * h * w`.
    data: Vec<f32>,
    labels: Vec<usize>,
}

impl SyntheticImages {
    /// Generates `per_class` jittered, noisy samples of each of `classes`
    /// random prototypes.
    ///
    /// `noise` is the Gaussian noise standard deviation (prototype values
    /// are roughly in `[-1, 1]`; `0.1`–`0.3` keeps the task learnable).
    ///
    /// # Panics
    ///
    /// Panics if any extent, `classes`, or `per_class` is zero.
    pub fn generate(
        channels: usize,
        height: usize,
        width: usize,
        classes: usize,
        per_class: usize,
        noise: f32,
        seed: u64,
    ) -> Self {
        assert!(
            channels > 0 && height > 2 && width > 2 && classes > 0 && per_class > 0,
            "degenerate dataset dimensions"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let prototypes: Vec<Vec<f32>> = (0..classes)
            .map(|_| prototype(&mut rng, channels, height, width))
            .collect();
        let plane = channels * height * width;
        let n = classes * per_class;
        let mut data = vec![0.0f32; n * plane];
        let mut labels = vec![0usize; n];
        for i in 0..n {
            let class = i % classes;
            labels[i] = class;
            let dy = rng.gen_range(-1i32..=1);
            let dx = rng.gen_range(-1i32..=1);
            let dst = &mut data[i * plane..(i + 1) * plane];
            let proto = &prototypes[class];
            for c in 0..channels {
                for y in 0..height {
                    for x in 0..width {
                        let sy = y as i32 + dy;
                        let sx = x as i32 + dx;
                        let v = if sy >= 0
                            && sx >= 0
                            && (sy as usize) < height
                            && (sx as usize) < width
                        {
                            proto[(c * height + sy as usize) * width + sx as usize]
                        } else {
                            0.0
                        };
                        dst[(c * height + y) * width + x] = v + noise * gaussian(&mut rng);
                    }
                }
            }
        }
        SyntheticImages {
            channels,
            height,
            width,
            classes,
            data,
            labels,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` when the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Label of sample `i`.
    pub fn label(&self, i: usize) -> usize {
        self.labels[i]
    }

    /// Assembles a batch tensor `[N, C, H, W]` plus labels for the given
    /// sample indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range or `indices` is empty.
    pub fn batch(&self, indices: &[usize]) -> (Tensor, Vec<usize>) {
        assert!(!indices.is_empty(), "empty batch");
        let plane = self.channels * self.height * self.width;
        let mut buf = Vec::with_capacity(indices.len() * plane);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            buf.extend_from_slice(&self.data[i * plane..(i + 1) * plane]);
            labels.push(self.labels[i]);
        }
        (
            Tensor::from_vec(
                buf,
                &[indices.len(), self.channels, self.height, self.width],
            ),
            labels,
        )
    }

    /// A shuffled permutation of all sample indices.
    pub fn shuffled_indices(&self, rng: &mut StdRng) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.shuffle(rng);
        idx
    }

    /// Splits into `(train, test)` with `test_fraction` of each class's
    /// samples moved to the test set.
    ///
    /// # Panics
    ///
    /// Panics if `test_fraction` is not in `(0, 1)`.
    pub fn split(&self, test_fraction: f64) -> (SyntheticImages, SyntheticImages) {
        assert!(
            test_fraction > 0.0 && test_fraction < 1.0,
            "test_fraction must be in (0,1)"
        );
        let plane = self.channels * self.height * self.width;
        let mut train = self.empty_like();
        let mut test = self.empty_like();
        let mut seen = vec![0usize; self.classes];
        let per_class = self.len() / self.classes;
        let test_per_class = ((per_class as f64) * test_fraction).ceil() as usize;
        for i in 0..self.len() {
            let class = self.labels[i];
            let dst = if seen[class] < test_per_class {
                &mut test
            } else {
                &mut train
            };
            seen[class] += 1;
            dst.data
                .extend_from_slice(&self.data[i * plane..(i + 1) * plane]);
            dst.labels.push(class);
        }
        (train, test)
    }

    /// Generates a 10-class digit-glyph dataset: seven-segment-style
    /// renderings of 0–9 on a `1×28×28` canvas with positional jitter,
    /// per-sample stroke-intensity variation, and Gaussian noise — the
    /// LeNet-5 proxy for the §II-B MNIST experiments.
    ///
    /// # Panics
    ///
    /// Panics if `per_class == 0`.
    pub fn digits(per_class: usize, noise: f32, seed: u64) -> Self {
        assert!(per_class > 0, "need at least one sample per class");
        let (h, w) = (28usize, 28usize);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xd161);
        let n = 10 * per_class;
        let plane = h * w;
        let mut data = vec![0.0f32; n * plane];
        let mut labels = vec![0usize; n];
        for i in 0..n {
            let digit = i % 10;
            labels[i] = digit;
            let dy = rng.gen_range(-2i32..=2);
            let dx = rng.gen_range(-2i32..=2);
            let intensity = rng.gen_range(0.7..=1.0f32);
            let dst = &mut data[i * plane..(i + 1) * plane];
            for (sy, sx, sh, sw) in segments_of(digit) {
                for y in sy..sy + sh {
                    for x in sx..sx + sw {
                        let ty = y as i32 + dy;
                        let tx = x as i32 + dx;
                        if ty >= 0 && tx >= 0 && (ty as usize) < h && (tx as usize) < w {
                            dst[ty as usize * w + tx as usize] = intensity;
                        }
                    }
                }
            }
            for v in dst.iter_mut() {
                *v += noise * gaussian(&mut rng);
            }
        }
        SyntheticImages {
            channels: 1,
            height: h,
            width: w,
            classes: 10,
            data,
            labels,
        }
    }

    fn empty_like(&self) -> SyntheticImages {
        SyntheticImages {
            channels: self.channels,
            height: self.height,
            width: self.width,
            classes: self.classes,
            data: Vec::new(),
            labels: Vec::new(),
        }
    }
}

/// Seven-segment geometry on the 28×28 canvas: the active segments of each
/// digit as `(y, x, height, width)` rectangles.
fn segments_of(digit: usize) -> Vec<(usize, usize, usize, usize)> {
    // Segment layout (3px strokes over a 16x12 glyph at offset (6, 8)):
    //   0: top bar, 1: top-left, 2: top-right, 3: middle bar,
    //   4: bottom-left, 5: bottom-right, 6: bottom bar.
    const SEGS: [(usize, usize, usize, usize); 7] = [
        (6, 8, 3, 12),  // top
        (6, 8, 8, 3),   // top-left
        (6, 17, 8, 3),  // top-right
        (13, 8, 3, 12), // middle
        (13, 8, 8, 3),  // bottom-left
        (13, 17, 8, 3), // bottom-right
        (19, 8, 3, 12), // bottom
    ];
    const DIGIT_SEGS: [&[usize]; 10] = [
        &[0, 1, 2, 4, 5, 6],    // 0
        &[2, 5],                // 1
        &[0, 2, 3, 4, 6],       // 2
        &[0, 2, 3, 5, 6],       // 3
        &[1, 2, 3, 5],          // 4
        &[0, 1, 3, 5, 6],       // 5
        &[0, 1, 3, 4, 5, 6],    // 6
        &[0, 2, 5],             // 7
        &[0, 1, 2, 3, 4, 5, 6], // 8
        &[0, 1, 2, 3, 5, 6],    // 9
    ];
    DIGIT_SEGS[digit].iter().map(|&s| SEGS[s]).collect()
}

/// Random low-frequency prototype: a sum of a few 2-D sinusoids per channel.
fn prototype(rng: &mut StdRng, channels: usize, height: usize, width: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; channels * height * width];
    for c in 0..channels {
        for _ in 0..3 {
            let fy = rng.gen_range(0.5..1.5f32);
            let fx = rng.gen_range(0.5..1.5f32);
            let py = rng.gen_range(0.0..std::f32::consts::TAU);
            let px = rng.gen_range(0.0..std::f32::consts::TAU);
            let amp = rng.gen_range(0.3..0.7f32);
            for y in 0..height {
                for x in 0..width {
                    let v = amp
                        * (fy * y as f32 * std::f32::consts::TAU / height as f32 + py).sin()
                        * (fx * x as f32 * std::f32::consts::TAU / width as f32 + px).sin();
                    out[(c * height + y) * width + x] += v;
                }
            }
        }
    }
    out
}

/// Box–Muller standard normal sample.
fn gaussian(rng: &mut StdRng) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_produces_balanced_labels() {
        let d = SyntheticImages::generate(1, 8, 8, 4, 10, 0.1, 1);
        assert_eq!(d.len(), 40);
        for class in 0..4 {
            let count = (0..d.len()).filter(|&i| d.label(i) == class).count();
            assert_eq!(count, 10);
        }
    }

    #[test]
    fn batch_shapes_and_labels_align() {
        let d = SyntheticImages::generate(3, 8, 8, 2, 5, 0.1, 2);
        let (x, y) = d.batch(&[0, 3, 7]);
        assert_eq!(x.shape().dims(), &[3, 3, 8, 8]);
        assert_eq!(y, vec![d.label(0), d.label(3), d.label(7)]);
    }

    #[test]
    fn same_seed_reproduces_dataset() {
        let a = SyntheticImages::generate(1, 8, 8, 3, 4, 0.2, 9);
        let b = SyntheticImages::generate(1, 8, 8, 3, 4, 0.2, 9);
        let (xa, _) = a.batch(&[0, 1]);
        let (xb, _) = b.batch(&[0, 1]);
        assert_eq!(xa.as_slice(), xb.as_slice());
    }

    #[test]
    fn split_is_class_balanced_and_disjoint_in_size() {
        let d = SyntheticImages::generate(1, 8, 8, 2, 10, 0.1, 3);
        let (train, test) = d.split(0.2);
        assert_eq!(train.len() + test.len(), d.len());
        assert_eq!(test.len(), 4); // 2 per class
    }

    #[test]
    fn digit_glyphs_are_learnable_and_distinct() {
        let d = SyntheticImages::digits(6, 0.05, 5);
        assert_eq!(d.classes(), 10);
        assert_eq!(d.len(), 60);
        // Distinct digits must differ: compare clean class exemplars by
        // their active pixel masses (8 has all segments, 1 only two).
        let (x, y) = d.batch(&(0..d.len()).collect::<Vec<_>>());
        assert_eq!(x.shape().dims(), &[60, 1, 28, 28]);
        let plane = 28 * 28;
        let mass = |i: usize| -> f32 {
            x.as_slice()[i * plane..(i + 1) * plane]
                .iter()
                .filter(|v| **v > 0.4)
                .count() as f32
        };
        let mut mass_by_class = vec![0.0f32; 10];
        let mut counts = [0usize; 10];
        for i in 0..d.len() {
            mass_by_class[y[i]] += mass(i);
            counts[y[i]] += 1;
        }
        for c in 0..10 {
            mass_by_class[c] /= counts[c] as f32;
        }
        assert!(
            mass_by_class[8] > 1.5 * mass_by_class[1],
            "8 has far more ink than 1: {mass_by_class:?}"
        );
    }

    #[test]
    fn lenet_learns_the_digit_glyphs() {
        use crate::models;
        use crate::trainer::{TrainConfig, Trainer};
        let data = SyntheticImages::digits(20, 0.12, 6);
        let (train, test) = data.split(0.2);
        let mut net = models::lenet5(10, 6);
        let report = Trainer::new(TrainConfig {
            epochs: 10,
            batch_size: 32,
            lr: 0.05,
            ..Default::default()
        })
        .fit(&mut net, &train, &test);
        assert!(
            report.final_test_accuracy > 0.75,
            "LeNet should read the glyphs: {}",
            report.final_test_accuracy
        );
    }

    #[test]
    fn same_class_samples_are_more_similar_than_cross_class() {
        let d = SyntheticImages::generate(1, 12, 12, 2, 20, 0.05, 4);
        // Compare the first two same-class and cross-class pairs.
        let (x, y) = d.batch(&(0..d.len()).collect::<Vec<_>>());
        let plane = 144;
        let dist = |i: usize, j: usize| -> f32 {
            x.as_slice()[i * plane..(i + 1) * plane]
                .iter()
                .zip(&x.as_slice()[j * plane..(j + 1) * plane])
                .map(|(a, b)| (a - b) * (a - b))
                .sum()
        };
        // Average same-class vs cross-class distance over several pairs.
        let mut same = 0.0;
        let mut cross = 0.0;
        let mut ns = 0;
        let mut nc = 0;
        for i in 0..d.len() {
            for j in (i + 1)..d.len() {
                if y[i] == y[j] {
                    same += dist(i, j);
                    ns += 1;
                } else {
                    cross += dist(i, j);
                    nc += 1;
                }
            }
        }
        assert!(same / (ns as f32) < cross / (nc as f32));
    }
}
