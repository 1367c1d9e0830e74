//! Trajectory dump & read-back — the post-processing path of Table 4.
//!
//! The paper's Table 4 compares in-situ MSD against a post-processing tool
//! that must first *read the LAMMPS trajectory file* — the read utterly
//! dominates (2413 s read vs 17.85 s analyze at 100 k atoms). This module
//! provides the trajectory format: a simple binary layout (header + per-
//! frame species/positions/velocities) written by the simulation's output
//! steps and re-read by the post-processing example.

use crate::system::{Species, System};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: u32 = 0x4D44_5452; // "MDTR"

/// One stored trajectory frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Simulation step the frame was taken at.
    pub step: u64,
    /// Box edge lengths.
    pub box_lengths: [f64; 3],
    /// Species index per particle.
    pub species: Vec<u8>,
    /// Positions, SoA.
    pub pos: [Vec<f64>; 3],
    /// Velocities, SoA.
    pub vel: [Vec<f64>; 3],
}

impl Frame {
    /// Captures the current state of `system`.
    pub fn capture(system: &System) -> Frame {
        Frame {
            step: system.step_count as u64,
            box_lengths: system.bounds.lengths,
            species: system.species.clone(),
            pos: system.pos.clone(),
            vel: system.vel.clone(),
        }
    }

    /// Number of particles in the frame.
    pub fn len(&self) -> usize {
        self.species.len()
    }

    /// True when the frame has no particles.
    pub fn is_empty(&self) -> bool {
        self.species.is_empty()
    }

    /// Indices of particles of `species` in this frame.
    pub fn of_species(&self, species: Species) -> Vec<usize> {
        let s = species.index() as u8;
        (0..self.len()).filter(|&i| self.species[i] == s).collect()
    }

    /// On-disk size of this frame in bytes.
    pub fn byte_size(&self) -> u64 {
        // step + box + count + species + 6 f64 arrays
        8 + 24 + 8 + self.len() as u64 + 6 * 8 * self.len() as u64
    }
}

/// Streaming trajectory writer.
#[derive(Debug)]
pub struct TrajectoryWriter {
    w: BufWriter<File>,
    /// Frames written so far.
    pub frames: usize,
    /// Bytes written so far (payload accounting).
    pub bytes: u64,
}

fn write_f64s(w: &mut impl Write, v: &[f64]) -> io::Result<()> {
    for x in v {
        w.write_all(&x.to_le_bytes())?;
    }
    Ok(())
}

fn read_f64s(r: &mut impl Read, n: usize) -> io::Result<Vec<f64>> {
    let mut buf = [0u8; 8];
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        r.read_exact(&mut buf)?;
        out.push(f64::from_le_bytes(buf));
    }
    Ok(out)
}

impl TrajectoryWriter {
    /// Creates/truncates a trajectory file.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let mut w = BufWriter::new(File::create(path)?);
        w.write_all(&MAGIC.to_le_bytes())?;
        Ok(TrajectoryWriter {
            w,
            frames: 0,
            bytes: 4,
        })
    }

    /// Appends one frame.
    pub fn write_frame(&mut self, frame: &Frame) -> io::Result<()> {
        let n = frame.len() as u64;
        self.w.write_all(&frame.step.to_le_bytes())?;
        for l in frame.box_lengths {
            self.w.write_all(&l.to_le_bytes())?;
        }
        self.w.write_all(&n.to_le_bytes())?;
        self.w.write_all(&frame.species)?;
        for d in 0..3 {
            write_f64s(&mut self.w, &frame.pos[d])?;
        }
        for d in 0..3 {
            write_f64s(&mut self.w, &frame.vel[d])?;
        }
        self.frames += 1;
        self.bytes += frame.byte_size();
        Ok(())
    }

    /// Flushes and closes the file.
    pub fn finish(mut self) -> io::Result<u64> {
        self.w.flush()?;
        Ok(self.bytes)
    }
}

/// Streaming trajectory reader.
#[derive(Debug)]
pub struct TrajectoryReader {
    r: BufReader<File>,
}

impl TrajectoryReader {
    /// Opens a trajectory file, validating the magic header.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let mut r = BufReader::new(File::open(path)?);
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if u32::from_le_bytes(magic) != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not a trajectory file",
            ));
        }
        Ok(TrajectoryReader { r })
    }

    /// Reads the next frame, or `None` at end of file.
    pub fn next_frame(&mut self) -> io::Result<Option<Frame>> {
        let mut b8 = [0u8; 8];
        match self.r.read_exact(&mut b8) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(e),
        }
        let step = u64::from_le_bytes(b8);
        let mut box_lengths = [0.0; 3];
        for l in box_lengths.iter_mut() {
            self.r.read_exact(&mut b8)?;
            *l = f64::from_le_bytes(b8);
        }
        self.r.read_exact(&mut b8)?;
        let n = u64::from_le_bytes(b8) as usize;
        let mut species = vec![0u8; n];
        self.r.read_exact(&mut species)?;
        let mut pos: [Vec<f64>; 3] = Default::default();
        for p in pos.iter_mut() {
            *p = read_f64s(&mut self.r, n)?;
        }
        let mut vel: [Vec<f64>; 3] = Default::default();
        for v in vel.iter_mut() {
            *v = read_f64s(&mut self.r, n)?;
        }
        Ok(Some(Frame {
            step,
            box_lengths,
            species,
            pos,
            vel,
        }))
    }

    /// Reads all remaining frames.
    pub fn read_all(&mut self) -> io::Result<Vec<Frame>> {
        let mut frames = Vec::new();
        while let Some(f) = self.next_frame()? {
            frames.push(f);
        }
        Ok(frames)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{water_ions, BuilderParams};

    #[test]
    fn round_trip_preserves_frames() {
        let mut s = water_ions(&BuilderParams {
            n_particles: 200,
            ..Default::default()
        });
        let path = crate::temp_path("roundtrip.trj");
        let mut w = TrajectoryWriter::create(&path).unwrap();
        let mut originals = Vec::new();
        for _ in 0..3 {
            for _ in 0..5 {
                s.step();
            }
            let f = Frame::capture(&s);
            w.write_frame(&f).unwrap();
            originals.push(f);
        }
        let bytes = w.finish().unwrap();
        assert!(bytes > 0);
        let mut r = TrajectoryReader::open(&path).unwrap();
        let frames = r.read_all().unwrap();
        assert_eq!(frames, originals);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn byte_size_matches_file_growth() {
        let s = water_ions(&BuilderParams {
            n_particles: 100,
            ..Default::default()
        });
        let path = crate::temp_path("size.trj");
        let mut w = TrajectoryWriter::create(&path).unwrap();
        let f = Frame::capture(&s);
        w.write_frame(&f).unwrap();
        let logical = w.finish().unwrap();
        let physical = std::fs::metadata(&path).unwrap().len();
        assert_eq!(logical, physical);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejects_garbage_files() {
        let path = crate::temp_path("garbage.trj");
        std::fs::write(&path, b"not a trajectory").unwrap();
        assert!(TrajectoryReader::open(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_trajectory_reads_empty() {
        let path = crate::temp_path("empty.trj");
        let w = TrajectoryWriter::create(&path).unwrap();
        w.finish().unwrap();
        let mut r = TrajectoryReader::open(&path).unwrap();
        assert!(r.read_all().unwrap().is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn frame_species_selection() {
        let s = water_ions(&BuilderParams {
            n_particles: 500,
            ..Default::default()
        });
        let f = Frame::capture(&s);
        assert_eq!(
            f.of_species(Species::Ion).len(),
            s.species_count(Species::Ion)
        );
        assert_eq!(f.len(), 500);
    }
}
