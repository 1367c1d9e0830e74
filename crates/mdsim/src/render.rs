//! Orthographic particle snapshot (paper Figure 3).
//!
//! Figure 3 is a VMD rendering of the rhodopsin benchmark: protein (solid
//! purple, centre) in a membrane (translucent green) solvated by water
//! (translucent blue) and ions (orange). This module renders the same view
//! as a binary PPM image: an orthographic x–z projection with painter's
//! ordering by species prominence, so the structure is recognizable.

use crate::system::{Species, System};
use std::io::{self, Write};
use std::path::Path;

/// Species colours (R, G, B), matching the paper's VMD palette.
fn color(species: Species) -> [u8; 3] {
    match species {
        Species::Water => [120, 160, 235],    // translucent blue
        Species::Hydronium => [235, 120, 200],
        Species::Ion => [245, 150, 40],       // orange
        Species::Membrane => [110, 200, 120], // translucent green
        Species::Protein => [150, 60, 200],   // solid purple
    }
}

/// Painter's priority: higher draws later (on top).
fn priority(species: Species) -> u8 {
    match species {
        Species::Water => 0,
        Species::Membrane => 1,
        Species::Hydronium => 2,
        Species::Ion => 3,
        Species::Protein => 4,
    }
}

/// A simple RGB raster.
#[derive(Debug, Clone)]
pub struct Image {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    /// RGB24 pixels, row-major.
    pub pixels: Vec<u8>,
}

impl Image {
    fn new(width: usize, height: usize) -> Self {
        Image {
            width,
            height,
            pixels: vec![20; width * height * 3], // near-black background
        }
    }

    fn splat(&mut self, x: i64, y: i64, radius: i64, rgb: [u8; 3]) {
        for dy in -radius..=radius {
            for dx in -radius..=radius {
                if dx * dx + dy * dy > radius * radius {
                    continue;
                }
                let px = x + dx;
                let py = y + dy;
                if px < 0 || py < 0 || px >= self.width as i64 || py >= self.height as i64 {
                    continue;
                }
                let idx = (py as usize * self.width + px as usize) * 3;
                self.pixels[idx..idx + 3].copy_from_slice(&rgb);
            }
        }
    }

    /// Pixel at `(x, y)`.
    pub fn pixel(&self, x: usize, y: usize) -> [u8; 3] {
        let idx = (y * self.width + x) * 3;
        [self.pixels[idx], self.pixels[idx + 1], self.pixels[idx + 2]]
    }

    /// Writes the image as binary PPM (P6).
    pub fn write_ppm(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        write!(f, "P6\n{} {}\n255\n", self.width, self.height)?;
        f.write_all(&self.pixels)?;
        Ok(())
    }
}

/// Renders an orthographic x–z projection of `system` (x horizontal, z
/// vertical — the membrane slab reads as a horizontal band, as in Fig. 3).
pub fn render_xz(system: &System, width: usize) -> Image {
    let lx = system.bounds.lengths[0];
    let lz = system.bounds.lengths[2];
    let height = ((width as f64) * lz / lx).round().max(1.0) as usize;
    let mut img = Image::new(width, height);
    // draw in priority order so the protein ends up on top
    let mut order: Vec<usize> = (0..system.len()).collect();
    order.sort_by_key(|&i| priority(Species::from_index(system.species[i] as usize)));
    let radius = (width as i64 / 256).max(1);
    for i in order {
        let sp = Species::from_index(system.species[i] as usize);
        let x = (system.pos[0][i] / lx * width as f64) as i64;
        // flip z so "up" is up
        let y = ((1.0 - system.pos[2][i] / lz) * height as f64) as i64;
        img.splat(x, y, radius, color(sp));
    }
    img
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{rhodopsin_proxy, BuilderParams};
    use crate::force::ForceField;
    use crate::system::SimBox;

    #[test]
    fn image_dimensions_follow_box_aspect() {
        let mut s = System::new(
            SimBox {
                lengths: [20.0, 10.0, 10.0],
            },
            ForceField::none(),
            0.01,
        );
        s.add_particle(Species::Water, [1.0, 1.0, 1.0], [0.0; 3]);
        let img = render_xz(&s, 200);
        assert_eq!(img.width, 200);
        assert_eq!(img.height, 100);
    }

    #[test]
    fn protein_painted_over_water() {
        let mut s = System::new(SimBox::cubic(10.0), ForceField::none(), 0.01);
        s.add_particle(Species::Protein, [5.0, 5.0, 5.0], [0.0; 3]);
        s.add_particle(Species::Water, [5.0, 5.0, 5.0], [0.0; 3]);
        let img = render_xz(&s, 64);
        // centre pixel must be protein purple despite water at same spot
        let p = img.pixel(32, 32);
        assert_eq!(p, [150, 60, 200]);
    }

    #[test]
    fn rhodopsin_snapshot_shows_membrane_band() {
        let s = rhodopsin_proxy(&BuilderParams {
            n_particles: 4096,
            ..Default::default()
        });
        let img = render_xz(&s, 128);
        let count_in_band = |y0: usize, y1: usize, rgb: [u8; 3]| -> usize {
            let mut n = 0;
            for y in y0..y1 {
                for x in 0..img.width {
                    if img.pixel(x, y) == rgb {
                        n += 1;
                    }
                }
            }
            n
        };
        let h = img.height;
        let green = [110, 200, 120];
        let blue = [120, 160, 235];
        // the central band is dominated by membrane, the top band by water
        assert!(
            count_in_band(h * 45 / 100, h * 55 / 100, green) > 0,
            "no membrane green in the central band"
        );
        assert!(
            count_in_band(0, h / 10, blue) > 0,
            "no water blue in the top band"
        );
        assert_eq!(
            count_in_band(0, h / 10, green),
            0,
            "membrane must not reach the top band"
        );
    }

    #[test]
    fn ppm_file_well_formed() {
        let mut s = System::new(SimBox::cubic(5.0), ForceField::none(), 0.01);
        s.add_particle(Species::Ion, [2.5, 2.5, 2.5], [0.0; 3]);
        let img = render_xz(&s, 32);
        let path = crate::temp_path("render.ppm");
        img.write_ppm(&path).unwrap();
        let data = std::fs::read(&path).unwrap();
        assert!(data.starts_with(b"P6\n32 32\n255\n"));
        assert_eq!(data.len(), 13 + 32 * 32 * 3);
        std::fs::remove_file(&path).unwrap();
    }
}
