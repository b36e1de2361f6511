//! `repld` is a static PIE on x86_64 Linux (`.cargo/config.toml`): a
//! position-independent executable with full RELRO, `BIND_NOW` and a
//! non-executable stack, but no program interpreter and no shared
//! library, so a running site maps no file but its own binary.
//!
//! A `RUSTFLAGS` environment variable replaces the config file's flags
//! rather than adding to them; a build under one links glibc dynamically
//! again and fails here.
#![cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};

const ET_DYN: u16 = 3;
const PT_DYNAMIC: u32 = 2;
const PT_INTERP: u32 = 3;
const PT_GNU_STACK: u32 = 0x6474_e551;
const PT_GNU_RELRO: u32 = 0x6474_e552;
const PF_X: u32 = 1;
const DT_NEEDED: u64 = 1;
const DT_FLAGS: u64 = 30;
const DF_BIND_NOW: u64 = 0x8;
const DT_FLAGS_1: u64 = 0x6fff_fffb;
const DF_1_NOW: u64 = 0x1;
const PT_LOAD: u32 = 1;
const DT_RELA: u64 = 7;
const DT_RELASZ: u64 = 8;
const DT_RELRSZ: u64 = 35;
const DT_RELR: u64 = 36;
const R_X86_64_RELATIVE: u64 = 8;

fn repld() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_repld"))
}

fn u16_at(b: &[u8], at: usize) -> u16 {
    u16::from_le_bytes(b[at..at + 2].try_into().unwrap())
}

fn u32_at(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().unwrap())
}

fn u64_at(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().unwrap())
}

/// One ELF64 program header: type, flags, file offset, address, file
/// size.
struct Segment {
    kind: u32,
    flags: u32,
    offset: usize,
    vaddr: usize,
    size: usize,
}

/// The ELF type and the program headers of a little-endian ELF64 file.
fn program_headers(elf: &[u8]) -> (u16, Vec<Segment>) {
    assert_eq!(&elf[..4], b"\x7fELF", "not an ELF file");
    assert_eq!((elf[4], elf[5]), (2, 1), "not a little-endian ELF64 file");
    let (phoff, phentsize, phnum) =
        (u64_at(elf, 32) as usize, u16_at(elf, 54) as usize, u16_at(elf, 56) as usize);
    let segments = (0..phnum)
        .map(|i| {
            let ph = &elf[phoff + i * phentsize..];
            Segment {
                kind: u32_at(ph, 0),
                flags: u32_at(ph, 4),
                offset: u64_at(ph, 8) as usize,
                vaddr: u64_at(ph, 16) as usize,
                size: u64_at(ph, 32) as usize,
            }
        })
        .collect();
    (u16_at(elf, 16), segments)
}

#[test]
fn repld_is_a_static_pie_with_relro_bind_now_and_an_nx_stack() {
    let elf = std::fs::read(repld()).unwrap();
    let (kind, segments) = program_headers(&elf);
    let has = |k| segments.iter().any(|s| s.kind == k);
    assert_eq!(kind, ET_DYN, "not position-independent");
    assert!(has(PT_GNU_RELRO), "no RELRO segment");
    assert!(!has(PT_INTERP), "has a program interpreter: linked dynamically");
    let stack = segments.iter().find(|s| s.kind == PT_GNU_STACK).expect("no GNU_STACK");
    assert_eq!(stack.flags & PF_X, 0, "executable stack");

    let dynamic = segments.iter().find(|s| s.kind == PT_DYNAMIC).expect("no dynamic section");
    let entries = elf[dynamic.offset..dynamic.offset + dynamic.size]
        .chunks_exact(16)
        .map(|e| (u64_at(e, 0), u64_at(e, 8)))
        .take_while(|&(tag, _)| tag != 0);
    let (mut needed, mut bind_now) = (0, false);
    for (tag, val) in entries {
        match tag {
            DT_NEEDED => needed += 1,
            DT_FLAGS => bind_now |= val & DF_BIND_NOW != 0,
            DT_FLAGS_1 => bind_now |= val & DF_1_NOW != 0,
            _ => {}
        }
    }
    assert_eq!(needed, 0, "links {needed} shared libraries");
    assert!(bind_now, "no BIND_NOW");
}

/// The relative relocations a static PIE applies to itself at start-up
/// are packed (`DT_RELR`, `-z pack-relative-relocs` in `build.rs`): a
/// bitmap of ≈ 0.7 kB instead of ≈ 63 kB of `R_X86_64_RELATIVE` entries
/// in `.rela.dyn`, which a site reads once and keeps mapped. What stays
/// in `.rela.dyn` is the `R_X86_64_IRELATIVE` entries of the IFUNCs.
#[test]
fn repld_packs_its_relative_relocations() {
    let elf = std::fs::read(repld()).unwrap();
    let (_, segments) = program_headers(&elf);
    let dynamic = segments.iter().find(|s| s.kind == PT_DYNAMIC).expect("no dynamic section");
    let entries: Vec<(u64, u64)> = elf[dynamic.offset..dynamic.offset + dynamic.size]
        .chunks_exact(16)
        .map(|e| (u64_at(e, 0), u64_at(e, 8)))
        .take_while(|&(tag, _)| tag != 0)
        .collect();
    let value = |tag| entries.iter().find(|&&(t, _)| t == tag).map(|&(_, v)| v as usize);
    assert!(value(DT_RELR).is_some(), "no DT_RELR: the relative relocations are not packed");
    assert!(value(DT_RELRSZ).is_some_and(|n| n > 0), "no or an empty DT_RELRSZ");

    let (Some(rela), Some(size)) = (value(DT_RELA), value(DT_RELASZ)) else { return };
    let load = segments
        .iter()
        .find(|s| s.kind == PT_LOAD && (s.vaddr..s.vaddr + s.size).contains(&rela))
        .expect(".rela.dyn is in no loaded segment");
    let at = rela - load.vaddr + load.offset;
    let relative = elf[at..at + size]
        .chunks_exact(24)
        .filter(|r| u64_at(r, 8) & 0xffff_ffff == R_X86_64_RELATIVE);
    assert_eq!(relative.count(), 0, ".rela.dyn holds R_X86_64_RELATIVE entries");
}

/// A booted site's address space holds no file but `repld` itself: no
/// `ld.so`, libc or libgcc_s.
#[test]
fn a_running_site_maps_no_file_but_its_binary() {
    let mut child = Command::new(repld())
        .args(["--site", "0", "--listen", "127.0.0.1:0", "--protocol", "dagwt"])
        .args(["--placement", "1|0*16"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn repld");
    let mut banner = String::new();
    BufReader::new(child.stdout.take().unwrap()).read_line(&mut banner).unwrap();
    let maps = std::fs::read_to_string(format!("/proc/{}/maps", child.id()));
    let _ = child.kill();
    let _ = child.wait();
    assert!(banner.starts_with("repld: site 0 listening on"), "{banner:?}");

    let binary = repld().canonicalize().unwrap();
    let files: Vec<&str> = maps
        .as_deref()
        .unwrap()
        .lines()
        .filter_map(|line| line.split_whitespace().nth(5))
        .filter(|path| path.starts_with('/'))
        .collect();
    assert!(!files.is_empty(), "the binary itself is not mapped");
    for path in files {
        assert_eq!(Path::new(path), binary, "maps a file besides the binary");
    }
}
