// Registry folds: replacing a relation's base-plus-net-delta indexes by
// flat builds over its current snapshot.
//
// Append/Delete carry every maintained spec as its flat base plus one
// net delta (index.Set.Derive) — O(k) per write, never a rebuild on the
// write path. The delta grows with the writes since the base, and past
// index.WorthPatching a flat build is the cheaper steady state. Fold is
// the one place a registry is rebuilt flat, with two callers: the
// background compactor, scheduled by a publish whose net delta passes
// the rule, and the durable checkpoint, which folds synchronously so
// every index it freezes is flat.
package catalog

import "tetrisjoin/internal/index"

// scheduleCompact starts a background fold of the named relation's
// registry unless one is already in flight. A failed fold leaves the
// delta registry in place; it is correct, only slower to probe.
func (c *Catalog) scheduleCompact(name string) {
	c.compactMu.Lock()
	defer c.compactMu.Unlock()
	if c.compacting[name] {
		return
	}
	c.compacting[name] = true
	c.compactWG.Add(1)
	go func() {
		defer c.compactWG.Done()
		defer func() {
			c.compactMu.Lock()
			delete(c.compacting, name)
			c.compactMu.Unlock()
		}()
		_ = c.Fold(name)
	}()
}

// Fold rebuilds the named relation's registry as flat indexes over its
// current snapshot and swaps it in, when any of its indexes carries a
// net delta; otherwise it does nothing. The swap happens only if the
// version and registry it read are still current. A publish racing
// past the rebuild invalidates it — the new version's registry composed
// its delta over the stale base — so Fold re-reads and retries a
// bounded number of times; such a racing publish re-checks the fold
// trigger itself, so a delta can never silently stay large.
func (c *Catalog) Fold(name string) error {
	for attempt := 0; attempt < 8; attempt++ {
		c.mu.RLock()
		cur, ok := c.rels[name]
		old := c.sets[cur]
		c.mu.RUnlock()
		if !ok || old == nil || old.DeltaLen() == 0 {
			return nil // gone, or already flat
		}
		fresh := index.NewSet(cur, &c.builds)
		built := 0
		for _, spec := range old.SpecList() {
			_, b, err := fresh.Get(spec)
			if err != nil {
				return err
			}
			if b {
				built++
			}
		}
		c.mu.Lock()
		if c.rels[name] == cur && c.sets[cur] == old {
			c.sets[cur] = fresh
			c.mu.Unlock()
			c.compactions.Add(1)
			c.compactBuilds.Add(int64(built))
			return nil
		}
		c.mu.Unlock()
	}
	return nil
}

// WaitCompactions blocks until every in-flight background fold has
// finished; for tests and orderly shutdown.
func (c *Catalog) WaitCompactions() {
	c.compactWG.Wait()
}
