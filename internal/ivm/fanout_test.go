package ivm_test

import (
	"testing"

	"pgiv/internal/ivm"
	"pgiv/internal/workload"
)

// TestFanOutSelection pins which commits wake the propagation helpers on
// a four-worker engine: single-op commits against non-path views run
// inline, a 32-op batch fans out, and so does a single-op commit once two
// path views each hold a group.
func TestFanOutSelection(t *testing.T) {
	setup := func(t *testing.T, names []string) (*workload.Social, *ivm.Engine) {
		t.Helper()
		soc := workload.GenerateSocial(workload.DefaultSocialConfig(1))
		engine := ivm.NewEngine(soc.G, ivm.Options{NumWorkers: 4})
		t.Cleanup(engine.Close)
		for _, name := range names {
			if _, err := engine.RegisterView(name, socialQuery(name)); err != nil {
				t.Fatal(err)
			}
		}
		return soc, engine
	}
	t.Run("per-op/no-paths", func(t *testing.T) {
		soc, engine := setup(t, churnBattery())
		soc.Churn(300)
		if engine.PoolStarted() {
			t.Fatal("single-op commits on non-path views started the helper pool")
		}
	})
	t.Run("batch-32/no-paths", func(t *testing.T) {
		soc, engine := setup(t, churnBattery())
		soc.ChurnBatch(32)
		if !engine.PoolStarted() {
			t.Fatal("a 32-op batch did not start the helper pool")
		}
	})
	t.Run("per-op/two-paths", func(t *testing.T) {
		soc, engine := setup(t, []string{"threads", "deep-thread"})
		soc.FlipLanguage()
		if !engine.PoolStarted() {
			t.Fatal("a single-op commit under two path views did not start the helper pool")
		}
	})
}
