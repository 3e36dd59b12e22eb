package ivm

// SetRewriteHook installs a test seam that runs on the query path
// between memo selection and residual evaluation — the window where a
// concurrent DropView can release the memo's registry entry while the
// read still holds its published rows.
func (e *Engine) SetRewriteHook(fn func()) { e.qs.rewriteHook = fn }

// PoolStarted reports whether a commit has fanned out to the
// propagation helper pool (which starts on first use).
func (e *Engine) PoolStarted() bool { return e.jobs != nil }

// SetFanOutAt overrides the ChangeSet size from which a commit with two
// or more active groups fans out (fanOutElems by default). Call it
// before the first commit.
func (e *Engine) SetFanOutAt(n int) { e.fanOutAt = n }

// PublishRebuilds reports how many times the view's production rebuilt
// its canonical row slice by sorting the whole bag.
func (v *View) PublishRebuilds() int { return v.network.Prod.Rebuilds() }
