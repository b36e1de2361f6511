//! Run-length placement specs. On random placements, the run form and
//! the per-item form parse to the placement they were printed from, and
//! printing is idempotent through a parse. On arbitrary strings,
//! truncations and digit flips of valid specs, `from_spec` returns `Ok`
//! or a typed error — never a panic, never an allocation sized from an
//! unchecked item count.

use proptest::prelude::*;

use repl_copygraph::DataPlacement;
use repl_types::SiteId;

/// A placement of 1–6 sites, added item by item from up to 12 runs of
/// 1–50 items. Each run's replica list is unsorted and may repeat a
/// site; adjacent runs placed alike merge.
fn arb_placement() -> BoxedStrategy<DataPlacement> {
    let run = (0u32..6, prop::collection::vec(0u32..6, 0..8), 1u32..=50);
    (1u32..=6, prop::collection::vec(run, 0..12))
        .prop_map(|(sites, runs)| {
            let mut p = DataPlacement::new(sites);
            for (primary, replicas, len) in runs {
                let primary = SiteId(primary % sites);
                let replicas: Vec<SiteId> = replicas
                    .into_iter()
                    .map(|r| SiteId(r % sites))
                    .filter(|&r| r != primary)
                    .collect();
                for _ in 0..len {
                    p.add_item(primary, &replicas);
                }
            }
            p
        })
        .boxed()
}

/// The spec with one field per item, written from the per-item answers
/// alone.
fn expanded(p: &DataPlacement) -> String {
    let mut spec = p.num_sites().to_string();
    for item in p.items() {
        spec += &format!("|{}", p.primary_of(item).0);
        for (i, r) in p.replicas_of(item).iter().enumerate() {
            spec += &format!("{}{}", if i == 0 { ':' } else { ',' }, r.0);
        }
    }
    spec
}

/// `a` and `b` answer every placement question alike.
fn same(a: &DataPlacement, b: &DataPlacement) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.num_sites(), b.num_sites());
    prop_assert_eq!(a.num_items(), b.num_items());
    for item in a.items() {
        prop_assert_eq!(a.primary_of(item), b.primary_of(item));
        prop_assert_eq!(a.replicas_of(item), b.replicas_of(item));
    }
    for site in a.sites() {
        prop_assert_eq!(a.items_at(site), b.items_at(site));
        prop_assert_eq!(a.primaries_at(site), b.primaries_at(site));
        for item in a.items() {
            prop_assert_eq!(a.has_copy(site, item), b.has_copy(site, item));
        }
    }
    Ok(())
}

/// Parse `spec`; whatever parses must print to a spec that parses back
/// to the same placement.
fn parse_total(spec: &str) -> Result<(), TestCaseError> {
    if let Ok(p) = DataPlacement::from_spec(spec) {
        let again = DataPlacement::from_spec(&p.to_spec()).expect("a printed spec parses");
        same(&p, &again)?;
        prop_assert_eq!(
            p.runs().map(|(_, _, n)| u64::from(n)).sum::<u64>(),
            u64::from(p.num_items())
        );
    }
    Ok(())
}

/// No digit run longer than five: a site count or run length past
/// 99 999 sizes its arrays honestly, and would only test the machine.
fn small_numbers(s: &str) -> bool {
    s.split(|c: char| !c.is_ascii_digit()).all(|digits| digits.len() <= 5)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn run_form_and_per_item_form_parse_to_the_printed_placement(p in arb_placement()) {
        let spec = p.to_spec();
        prop_assert_eq!(spec.split('|').count(), 1 + p.runs().count());
        let parsed = DataPlacement::from_spec(&spec).unwrap();
        same(&parsed, &p)?;
        prop_assert_eq!(parsed.to_spec(), spec);

        let items = expanded(&p);
        prop_assert_eq!(p.per_item_spec().to_string(), items.clone());
        let from_items = DataPlacement::from_spec(&items).unwrap();
        same(&from_items, &p)?;
        prop_assert_eq!(from_items.to_spec(), p.to_spec());
        prop_assert_eq!(p.total_replicas(), p.items().map(|i| p.replicas_of(i).len()).sum::<usize>());
    }

    #[test]
    fn arbitrary_ascii_never_panics(bytes in prop::collection::vec(32u8..127, 0..40)) {
        let s = String::from_utf8(bytes).expect("ascii");
        prop_assume!(small_numbers(&s));
        parse_total(&s)?;
    }

    #[test]
    fn spec_alphabet_never_panics(
        tokens in prop::collection::vec(
            prop_oneof![
                4 => (0u8..10).prop_map(|d| char::from(b'0' + d)),
                4 => prop_oneof![Just('|'), Just(':'), Just(','), Just('*')],
                1 => prop_oneof![Just(' '), Just('-'), Just('+'), Just('x')],
            ],
            0..32,
        ),
    ) {
        let s: String = tokens.into_iter().collect();
        prop_assume!(small_numbers(&s));
        parse_total(&s)?;
    }

    #[test]
    fn truncated_and_digit_flipped_specs_never_panic(
        p in arb_placement(),
        cut in 0usize..1000,
        flips in prop::collection::vec((0usize..1000, 0u8..10), 1..4),
    ) {
        let spec = p.to_spec();
        parse_total(&spec[..cut % (spec.len() + 1)])?;
        let mut flipped = spec.into_bytes();
        let digits: Vec<usize> = (0..flipped.len()).filter(|&i| flipped[i].is_ascii_digit()).collect();
        for (at, d) in flips {
            flipped[digits[at % digits.len()]] = b'0' + d;
        }
        parse_total(&String::from_utf8(flipped).expect("ascii"))?;
    }
}
