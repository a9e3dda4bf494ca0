//! Admission: the one policy a namespace applies to what peers send it
//! (§4.2, and the §7 extensions implemented here).
//!
//! The paper notes "Currently, MAGE trusts its constituent servers" and
//! plans access control for WANs fragmented into competing administrative
//! domains, plus "resource allocation models". Each namespace carries one
//! [`Admission`] value that decides all of it: which peers may push
//! objects, classes, instantiation requests and checkpoints into it, how
//! many objects it hosts and classes it caches, and whether classes with
//! static fields may be replicated here at all (§4.2). A refusal is an
//! [`AccessDenied`](Fault::AccessDenied) fault, which reaches the mobility
//! attribute as a denial.

use std::collections::BTreeSet;

use mage_rmi::Fault;
use mage_sim::NodeId;

/// A namespace's admission policy. The default is the paper's current
/// MAGE: every peer trusted, no quotas, and classes with static fields
/// refused.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Admission {
    /// Peers that may push components into this namespace (`None` =
    /// every peer).
    pub trusted: Option<BTreeSet<NodeId>>,
    /// Maximum hosted objects (`None` = unlimited).
    pub max_objects: Option<u64>,
    /// Maximum cached classes (`None` = unlimited).
    pub max_classes: Option<u64>,
    /// Whether classes with static fields may be replicated here (§4.2).
    pub static_classes: bool,
}

impl Admission {
    /// Admits `what` (objects, classes, instantiation, checkpoints) pushed
    /// into namespace `ns` by `peer`, or refuses an untrusted peer.
    ///
    /// # Errors
    ///
    /// [`Fault::AccessDenied`] when `peer` is not trusted.
    pub fn admit_peer(&self, ns: &str, what: &str, peer: NodeId) -> Result<(), Fault> {
        match &self.trusted {
            Some(allowed) if !allowed.contains(&peer) => Err(Fault::AccessDenied(format!(
                "namespace {ns} does not accept {what} from {peer}"
            ))),
            _ => Ok(()),
        }
    }

    /// Admits one more object pushed into namespace `ns` (an arriving
    /// migration or an instantiation request, named by `what`) by `peer`,
    /// when `ns` hosts `hosted` objects.
    ///
    /// # Errors
    ///
    /// [`Fault::AccessDenied`] when `peer` is not trusted or the object
    /// quota is reached.
    pub fn admit_object(
        &self,
        ns: &str,
        what: &str,
        peer: NodeId,
        hosted: usize,
    ) -> Result<(), Fault> {
        self.admit_peer(ns, what, peer)?;
        if self.max_objects.is_some_and(|max| hosted as u64 >= max) {
            return Err(Fault::AccessDenied(format!(
                "object quota exceeded in namespace {ns}"
            )));
        }
        Ok(())
    }

    /// The class gate every class arriving from a peer passes, pushed or
    /// fetched: refuses `class` if it has static fields and they are not
    /// allowed (replication would fork static state), and, unless the
    /// namespace already `cached` it, refuses one class beyond the quota
    /// when `ns` holds `held` classes.
    ///
    /// # Errors
    ///
    /// [`Fault::AccessDenied`] on either refusal.
    pub fn admit_class(
        &self,
        ns: &str,
        class: &str,
        has_static_fields: bool,
        cached: bool,
        held: usize,
    ) -> Result<(), Fault> {
        if has_static_fields && !self.static_classes {
            return Err(Fault::AccessDenied(format!(
                "class {class} has static fields; replication would fork static state"
            )));
        }
        if !cached && self.max_classes.is_some_and(|max| held as u64 >= max) {
            return Err(Fault::AccessDenied(format!(
                "class quota exceeded in namespace {ns}"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trusting(ids: &[u32]) -> Admission {
        let trusted = ids.iter().copied().map(NodeId::from_raw).collect();
        Admission {
            trusted: Some(trusted),
            ..Admission::default()
        }
    }

    fn quotas(max_objects: u64, max_classes: u64) -> Admission {
        Admission {
            max_objects: Some(max_objects),
            max_classes: Some(max_classes),
            ..Admission::default()
        }
    }

    fn admits(policy: &Admission, peer: u32) -> bool {
        let peer = NodeId::from_raw(peer);
        policy.admit_peer("ns", "classes", peer).is_ok()
    }

    fn fits(policy: &Admission, objects: usize, classes: usize) -> (bool, bool) {
        let peer = NodeId::from_raw(0);
        let object = policy.admit_object("ns", "objects", peer, objects);
        let class = policy.admit_class("ns", "C", false, false, classes);
        (object.is_ok(), class.is_ok())
    }

    #[test]
    fn default_trusts_everyone() {
        let open = Admission::default();
        assert!(admits(&open, 0) && admits(&open, 77));
    }

    #[test]
    fn allow_list_admits_only_members() {
        let policy = trusting(&[1, 3]);
        assert!(admits(&policy, 1) && admits(&policy, 3));
        assert!(!admits(&policy, 2));
        let objects = policy.admit_object("ns", "objects", NodeId::from_raw(2), 0);
        assert!(
            matches!(objects, Err(Fault::AccessDenied(_))),
            "{objects:?}"
        );
    }

    #[test]
    fn empty_allow_list_admits_nobody() {
        assert!(!admits(&trusting(&[]), 0));
    }

    #[test]
    fn unlimited_admits_everything() {
        let big = usize::MAX / 2;
        assert_eq!(fits(&Admission::default(), big, big), (true, true));
    }

    #[test]
    fn caps_are_enforced_at_the_boundary() {
        let q = quotas(2, 1);
        assert_eq!(fits(&q, 0, 0), (true, true));
        assert_eq!(fits(&q, 1, 1), (true, false));
        assert_eq!(fits(&q, 2, 1), (false, false));
        // A re-delivery of a cached class takes no room.
        assert!(q.admit_class("ns", "C", false, true, 1).is_ok());
    }

    #[test]
    fn zero_quota_refuses_all() {
        assert_eq!(fits(&quotas(0, 0), 0, 0), (false, false));
    }

    #[test]
    fn static_classes_are_refused_until_allowed() {
        let mut policy = Admission::default();
        let err = policy.admit_class("ns", "S", true, true, 0);
        assert!(matches!(err, Err(Fault::AccessDenied(_))), "{err:?}");
        policy.static_classes = true;
        assert!(policy.admit_class("ns", "S", true, false, 0).is_ok());
    }
}
