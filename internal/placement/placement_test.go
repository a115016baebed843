package placement

import (
	"fmt"
	"math/rand"
	"testing"
)

// harness state: a group universe, a member list in "view order", and a
// mutable table the Input closures read.
type world struct {
	groups  []string
	members []string
	table   map[string]string
}

func newWorld(v, k int) *world {
	w := &world{table: map[string]string{}}
	for i := 0; i < v; i++ {
		w.groups = append(w.groups, fmt.Sprintf("vip%02d", i))
	}
	for i := 0; i < k; i++ {
		w.members = append(w.members, fmt.Sprintf("srv-%c", 'a'+i))
	}
	return w
}

func (w *world) input() Input {
	return Input{
		Groups:  w.groups,
		Members: w.members,
		Owner:   func(g string) string { return w.table[g] },
		Prefers: func(string, string) bool { return false },
	}
}

// apply installs a plan as the current table and returns how many groups
// changed owner (counting only groups that had a previous owner — fresh
// assignments of uncovered groups are takeovers, not moves... except the
// leave tests count them deliberately via movesFrom).
func (w *world) apply(plan []Decision) int {
	moves := 0
	for _, d := range plan {
		if prev := w.table[d.Group]; prev != "" && prev != d.Owner {
			moves++
		}
		w.table[d.Group] = d.Owner
	}
	return moves
}

func (w *world) loads() map[string]int {
	out := map[string]int{}
	for _, o := range w.table {
		if o != "" {
			out[o]++
		}
	}
	return out
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// settle runs Balance until stable, verifying it stabilizes immediately
// after one application.
func settle(t *testing.T, p Policy, w *world) {
	t.Helper()
	w.apply(p.Balance(w.input(), nil))
	if again := w.apply(p.Balance(w.input(), nil)); again != 0 {
		t.Fatalf("Balance is not idempotent: %d further moves on second run", again)
	}
}

// TestMinimalBalanceBounds: every member's load lands in [⌊V/K⌋, ⌈V/K⌉]
// and every group is covered, from arbitrary seeded starting tables.
func TestMinimalBalanceBounds(t *testing.T) {
	for _, v := range []int{8, 10, 16, 32} {
		for k := 2; k <= 8; k++ {
			for seed := int64(0); seed < 10; seed++ {
				w := newWorld(v, k)
				rng := rand.New(rand.NewSource(seed))
				for _, g := range w.groups {
					// Random initial owner, sometimes a hole, sometimes a departed member.
					switch rng.Intn(4) {
					case 0:
						w.table[g] = ""
					case 1:
						w.table[g] = "srv-gone"
					default:
						w.table[g] = w.members[rng.Intn(k)]
					}
				}
				p := newMinimal()
				plan := p.Balance(w.input(), nil)
				if len(plan) != v {
					t.Fatalf("v=%d k=%d seed=%d: plan covers %d groups, want %d", v, k, seed, len(plan), v)
				}
				w.apply(plan)
				floor, ceil := v/k, ceilDiv(v, k)
				loads := w.loads()
				total := 0
				for _, m := range w.members {
					if loads[m] < floor || loads[m] > ceil {
						t.Fatalf("v=%d k=%d seed=%d: member %s load %d outside [%d,%d]", v, k, seed, m, loads[m], floor, ceil)
					}
					total += loads[m]
				}
				if total != v {
					t.Fatalf("v=%d k=%d seed=%d: %d groups assigned to members, want %d", v, k, seed, total, v)
				}
				settle(t, p, w)
			}
		}
	}
}

// TestMinimalMoveBoundJoin: from a balanced table, adding one member moves
// at most ⌈V/(K+1)⌉ ≤ MoveBound(V,K) groups, and every move lands on the
// joiner.
func TestMinimalMoveBoundJoin(t *testing.T) {
	for _, v := range []int{8, 10, 16, 32} {
		for k := 2; k <= 8; k++ {
			for seed := int64(0); seed < 20; seed++ {
				w := newWorld(v, k)
				p := newMinimal()
				settle(t, p, w)

				rng := rand.New(rand.NewSource(seed))
				joiner := fmt.Sprintf("srv-new%d", seed)
				pos := rng.Intn(k + 1)
				w.members = append(w.members[:pos], append([]string{joiner}, w.members[pos:]...)...)

				before := map[string]string{}
				for g, o := range w.table {
					before[g] = o
				}
				moves := w.apply(p.Balance(w.input(), nil))
				bound := p.MoveBound(v, k)
				if moves > bound {
					t.Fatalf("v=%d k=%d seed=%d: join moved %d groups, bound %d", v, k, seed, moves, bound)
				}
				if tight := ceilDiv(v, k+1); moves > tight {
					t.Fatalf("v=%d k=%d seed=%d: join moved %d groups, tight bound %d", v, k, seed, moves, tight)
				}
				for g, o := range w.table {
					if before[g] != o && o != joiner {
						t.Fatalf("v=%d k=%d seed=%d: join moved %s from %s to %s (not the joiner)", v, k, seed, g, before[g], o)
					}
				}
				settle(t, p, w)
			}
		}
	}
}

// TestMinimalMoveBoundLeave: from a balanced table, one departure is
// repaired by Fill moving exactly the leaver's groups (≤ ⌈V/K⌉), and the
// subsequent Balance has nothing left to do — the whole reconfiguration
// stays within MoveBound(V, K-1).
func TestMinimalMoveBoundLeave(t *testing.T) {
	for _, v := range []int{8, 10, 16, 32} {
		for k := 3; k <= 8; k++ {
			for seed := int64(0); seed < 20; seed++ {
				w := newWorld(v, k)
				p := newMinimal()
				settle(t, p, w)

				rng := rand.New(rand.NewSource(seed))
				leaver := w.members[rng.Intn(k)]
				orphans := 0
				for g, o := range w.table {
					if o == leaver {
						w.table[g] = "" // the engine rebuilds the table from claims; the leaver's groups are holes
						orphans++
					}
				}
				rest := w.members[:0]
				for _, m := range w.members {
					if m != leaver {
						rest = append(rest, m)
					}
				}
				w.members = rest

				fills := 0
				for _, d := range p.Fill(w.input(), nil) {
					if w.table[d.Group] == "" && d.Owner != "" {
						fills++
					}
					w.table[d.Group] = d.Owner
				}
				if fills != orphans {
					t.Fatalf("v=%d k=%d seed=%d: Fill assigned %d holes, want %d", v, k, seed, fills, orphans)
				}
				if bound := ceilDiv(v, k); orphans > bound {
					t.Fatalf("v=%d k=%d seed=%d: leaver owned %d groups, balanced bound %d", v, k, seed, orphans, bound)
				}
				// The fill already restored balance: no follow-up churn.
				if extra := w.apply(p.Balance(w.input(), nil)); extra != 0 {
					t.Fatalf("v=%d k=%d seed=%d: balance after leave-fill moved %d more groups", v, k, seed, extra)
				}
				if total := orphans; total > p.MoveBound(v, k-1) {
					t.Fatalf("v=%d k=%d seed=%d: leave reconfiguration moved %d, bound %d", v, k, seed, total, p.MoveBound(v, k-1))
				}
			}
		}
	}
}

// TestMinimalDeterminism: the plan is a pure function of the Input — fresh
// instances, reused instances, and re-invocations all agree.
func TestMinimalDeterminism(t *testing.T) {
	w := newWorld(16, 5)
	reused := newMinimal()
	// Dirty the reused instance's scratch with unrelated work.
	big := newWorld(32, 7)
	reused.Balance(big.input(), nil)

	rng := rand.New(rand.NewSource(42))
	for _, g := range w.groups {
		w.table[g] = w.members[rng.Intn(len(w.members))]
	}
	ref := newMinimal().Balance(w.input(), nil)
	for trial := 0; trial < 5; trial++ {
		got := reused.Balance(w.input(), nil)
		if len(got) != len(ref) {
			t.Fatalf("trial %d: plan length %d, want %d", trial, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("trial %d: decision %d = %v, want %v", trial, i, got[i], ref[i])
			}
		}
	}
}

// TestMinimalMaturityAdmission: a member absent from Input.Members (still
// inside the maturity window) is handed nothing; once admitted it receives
// at least the floor share.
func TestMinimalMaturityAdmission(t *testing.T) {
	w := newWorld(10, 3)
	p := newMinimal()
	settle(t, p, w)

	newcomer := "srv-young"
	// Immature: not in Members. The plan must not mention it.
	for _, d := range p.Balance(w.input(), nil) {
		if d.Owner == newcomer {
			t.Fatalf("immature member %s was assigned %s", newcomer, d.Group)
		}
	}
	// Matured: admitted to Members, takes its floor share.
	w.members = append(w.members, newcomer)
	w.apply(p.Balance(w.input(), nil))
	if got, floor := w.loads()[newcomer], 10/4; got < floor {
		t.Fatalf("matured member owns %d groups, want at least the floor %d", got, floor)
	}
}

// TestMinimalAffinityStickiness: a member that leaves and returns (same
// name, same view position) gets its old groups back — the HRW affinity
// remembers, so a rolling restart converges to the original layout.
func TestMinimalAffinityStickiness(t *testing.T) {
	w := newWorld(12, 4)
	p := newMinimal()
	settle(t, p, w)
	orig := map[string]string{}
	for g, o := range w.table {
		orig[g] = o
	}

	leaver := w.members[1]
	for g, o := range w.table {
		if o == leaver {
			w.table[g] = ""
		}
	}
	w.members = append(w.members[:1], w.members[2:]...)
	w.apply(p.Fill(w.input(), nil))
	w.apply(p.Balance(w.input(), nil))

	w.members = append(w.members[:1], append([]string{leaver}, w.members[1:]...)...)
	w.apply(p.Balance(w.input(), nil))
	back := 0
	for g, o := range w.table {
		if orig[g] == leaver && o == leaver {
			back++
		}
	}
	if origLoad := func() int {
		n := 0
		for _, o := range orig {
			if o == leaver {
				n++
			}
		}
		return n
	}(); back < origLoad-1 {
		t.Fatalf("returning member got back %d of its %d original groups", back, origLoad)
	}
}

// TestLeastLoadedFillKeepsIneligibleOwners mirrors the engine's historical
// post-gather rule: owners outside the eligible list keep their groups.
func TestLeastLoadedFillKeepsIneligibleOwners(t *testing.T) {
	for _, p := range []Policy{NewLeastLoaded(), newMinimal()} {
		w := newWorld(6, 2)
		w.table["vip00"] = "srv-immature"
		w.table["vip01"] = "srv-a"
		plan := p.Fill(w.input(), nil)
		for _, d := range plan {
			if d.Owner == "" {
				t.Fatalf("%s: Fill left %s uncovered", p.Name(), d.Group)
			}
		}
		if plan[0].Owner != "srv-immature" {
			t.Fatalf("%s: Fill displaced the ineligible owner of vip00 to %s", p.Name(), plan[0].Owner)
		}
	}
}

// TestFillNoEligible: with nobody eligible, owners are kept and holes stay
// holes — no policy invents an owner.
func TestFillNoEligible(t *testing.T) {
	for _, p := range []Policy{NewLeastLoaded(), newMinimal()} {
		w := newWorld(3, 0)
		w.table["vip01"] = "srv-immature"
		plan := p.Fill(w.input(), nil)
		if plan[0].Owner != "" || plan[2].Owner != "" {
			t.Fatalf("%s: Fill with no eligible members assigned owners: %v", p.Name(), plan)
		}
		if plan[1].Owner != "srv-immature" {
			t.Fatalf("%s: Fill displaced an owner with no eligible members: %v", p.Name(), plan)
		}
	}
}

func TestNew(t *testing.T) {
	for name, want := range map[string]string{
		"":              NameLeastLoaded,
		NameLeastLoaded: NameLeastLoaded,
		NameMinimal:     NameMinimal,
	} {
		p, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if p.Name() != want {
			t.Fatalf("New(%q).Name() = %s, want %s", name, p.Name(), want)
		}
	}
	if _, err := New("random"); err == nil {
		t.Fatal("New(random) did not fail")
	}
}

func TestMoveBound(t *testing.T) {
	m, ll := newMinimal(), NewLeastLoaded()
	if got := m.MoveBound(10, 4); got != 3 {
		t.Fatalf("minimal MoveBound(10,4) = %d, want 3", got)
	}
	if got := m.MoveBound(10, 0); got != 10 {
		t.Fatalf("minimal MoveBound(10,0) = %d, want 10", got)
	}
	if got := ll.MoveBound(10, 4); got != 10 {
		t.Fatalf("least-loaded MoveBound(10,4) = %d, want 10", got)
	}
}

// TestMinimalDecisionAllocs pins the steady-state Balance and Fill paths
// at zero allocations per decision (the benchmark gates the same thing in
// CI with -benchmem).
func TestMinimalDecisionAllocs(t *testing.T) {
	w := newWorld(32, 5)
	p := newMinimal()
	dst := p.Balance(w.input(), nil)
	w.apply(dst)
	in := w.input()
	if n := testing.AllocsPerRun(100, func() {
		dst = p.Balance(in, dst)
	}); n != 0 {
		t.Fatalf("Balance allocates %.1f times per decision, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		dst = p.Fill(in, dst)
	}); n != 0 {
		t.Fatalf("Fill allocates %.1f times per decision, want 0", n)
	}
}
