//! Property test for unsorted live results: random scripts of adds,
//! changes and removes with explicit versions, delivered shuffled and with
//! duplicates, leave exactly the state a key-ordered model of the version
//! guard predicts — through `LiveResult::apply` and `apply_event` alike.

use invalidb_client::{ClientEvent, LiveResult};
use invalidb_common::{
    doc, ChangeItem, Document, Key, MatchType, Notification, NotificationKind, ResultItem,
    SubscriptionId, TenantId, Version,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One scripted change: key number, kind (0 add, 1 change, 2 remove),
/// version, and whether a remove still carries the record's document (the
/// matching node sends the after-image of an update out of the result).
type Step = (u8, u8, Version, bool);

fn record(key: u8, version: Version) -> Document {
    doc! { "k" => i64::from(key), "v" => version as i64 }
}

fn change_of(&(key, kind, version, doc_on_remove): &Step) -> ChangeItem {
    let match_type = [MatchType::Add, MatchType::Change, MatchType::Remove][usize::from(kind)];
    let doc = (match_type != MatchType::Remove || doc_on_remove).then(|| record(key, version));
    ChangeItem {
        match_type,
        item: ResultItem { key: Key::of(format!("k{key}")), version, doc, index: None },
        old_index: None,
    }
}

fn note(kind: NotificationKind) -> Notification {
    Notification {
        tenant: TenantId::new("t"),
        subscription: SubscriptionId(1),
        kind,
        caused_by_write_at: 0,
        trace: None,
    }
}

/// The guard, on a key-ordered map: per key the newest version seen and,
/// when held, its document.
#[derive(Default)]
struct Model(BTreeMap<Key, (Version, Option<Document>)>);

impl Model {
    fn apply(&mut self, change: &ChangeItem) {
        let (key, version) = (&change.item.key, change.item.version);
        let (seen, held) = match self.0.get(key) {
            Some((seen, doc)) => (*seen, doc.is_some()),
            None => (0, false),
        };
        let stale =
            if change.match_type == MatchType::Remove { version < seen } else { version <= seen };
        if stale {
            return;
        }
        let doc = match (change.match_type, &change.item.doc) {
            (MatchType::Remove, _) => None,
            (_, Some(doc)) => Some(doc.clone()),
            // A document-less add or change holds nothing new.
            (_, None) if held => return,
            (_, None) => None,
        };
        self.0.insert(key.clone(), (version, doc));
    }

    fn held(&self) -> Vec<(Key, Version, Document)> {
        self.0.iter().filter_map(|(k, (v, d))| Some((k.clone(), *v, d.clone()?))).collect()
    }

    fn tombstones(&self) -> Vec<(Key, Version)> {
        self.0.iter().filter(|(_, (_, d))| d.is_none()).map(|(k, (v, _))| (k.clone(), *v)).collect()
    }
}

fn check(result: &LiveResult, model: &Model) -> Result<(), TestCaseError> {
    let held: Vec<(Key, Version, Document)> =
        result.entries().iter().map(|e| (e.key.clone(), e.version, (*e.doc).clone())).collect();
    prop_assert_eq!(&held, &model.held());
    prop_assert!(held.windows(2).all(|w| w[0].0 < w[1].0), "keys not strictly ascending: {:?}", held);
    let mut tombstones: Vec<(Key, Version)> = result.tombstones().map(|(k, v)| (k.clone(), v)).collect();
    tombstones.sort();
    prop_assert_eq!(&tombstones, &model.tombstones());
    prop_assert!(
        tombstones.iter().all(|(k, _)| held.binary_search_by(|h| h.0.cmp(k)).is_err()),
        "a key is both held and tombstoned"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn unsorted_results_apply_the_version_guard_in_key_order(
        initial in prop::collection::vec((0u8..12, 1u64..4), 0..8),
        script in prop::collection::vec((0u8..12, 0u8..3, 0u64..16, any::<bool>()), 1..40),
        // Positions into the script: a shuffled delivery with duplicates
        // (and, where a position never comes up, a lost message).
        delivery in prop::collection::vec(0usize..1_000, 1..80),
    ) {
        let mut model = Model::default();
        let mut items = Vec::new();
        for &(key, version) in &initial {
            let key_of = Key::of(format!("k{key}"));
            if model.0.contains_key(&key_of) {
                continue;
            }
            model.0.insert(key_of.clone(), (version, Some(record(key, version))));
            items.push(ResultItem::new(key_of, version, record(key, version)));
        }
        let (mut by_note, mut by_event) = (LiveResult::new(), LiveResult::new());
        by_note.apply(&note(NotificationKind::InitialResult { items: items.clone() }));
        by_event.apply_event(&ClientEvent::Initial(items));
        check(&by_note, &model)?;
        check(&by_event, &model)?;
        for position in delivery {
            let change = change_of(&script[position % script.len()]);
            model.apply(&change);
            by_event.apply_event(&ClientEvent::Change(Arc::new(change.clone())));
            by_note.apply(&note(NotificationKind::Change(change)));
            check(&by_note, &model)?;
            check(&by_event, &model)?;
        }
    }
}
