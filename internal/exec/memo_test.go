package exec

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"psclock/internal/ta"
)

// TestHeaderMemoMatchesScan: for every test header, the memo's hit list and
// hidden bit equal a direct scan of the subscriptions and of the Hide chain,
// on first sight and again from the memo. The headers cover NoNode, ids
// that grow the indexed range, an id beyond it, a negative id below NoNode,
// every Kind including the invalid 0 and one past the last, and two names
// that share a prefix; the predicates tell headers apart by each field.
func TestHeaderMemoMatchesScan(t *testing.T) {
	s := New()
	k := &sink{name: "k"}
	s.Add(k)
	for i := range 11 { // 12 components: node ids up to 11 are indexed
		s.Add(&sink{name: fmt.Sprint("idle", i)})
	}
	const far = ta.NodeID(70)
	s.ConnectName("READ", k)
	s.ConnectHeader(func(a ta.Action) bool { return strings.HasPrefix(a.Name, "READ") }, k)
	s.ConnectHeader(func(a ta.Action) bool { return a.Node == 3 }, k)
	s.ConnectHeader(func(a ta.Action) bool { return a.Peer == far }, k)
	s.ConnectHeader(func(a ta.Action) bool { return a.Kind == ta.KindOutput }, k)
	s.ConnectHeader(func(a ta.Action) bool { return a.Node == -5 && a.Kind == 0 }, k)
	s.ConnectHeader(func(a ta.Action) bool { return a.Peer == ta.NoNode && a.Name == "READY" }, k)
	s.Hide(func(a ta.Action) bool { return a.Name == "READY" && a.Peer != ta.NoNode })
	s.Hide(func(a ta.Action) bool { return a.Node == far || a.Kind == 0 })

	ids := []ta.NodeID{ta.NoNode, 0, 3, 9, far, -5}
	var headers []ta.Action
	for _, name := range []string{"READ", "READY", "TICK"} {
		for _, node := range ids {
			for _, peer := range ids {
				for kind := ta.Kind(0); kind <= ta.KindInternal+1; kind++ {
					headers = append(headers, ta.Action{Name: name, Node: node, Peer: peer, Kind: kind})
				}
			}
		}
	}
	check := func(pass string) {
		for _, a := range headers {
			var want []int32
			for i := range s.subs {
				if s.subs[i].match(a) {
					want = append(want, int32(i))
				}
			}
			h := s.headerFor(&s.root, a)
			if !slices.Equal(h.hits, want) || h.hidden != s.hidden(a) {
				t.Errorf("%s: %s %v→%v %v: memo hits %v hidden %v, scan hits %v hidden %v",
					pass, a.Name, a.Node, a.Peer, a.Kind, h.hits, h.hidden, want, s.hidden(a))
			}
		}
	}
	check("first sight")
	check("memoized")
	if s.root.memo.span < 10 {
		t.Errorf("memo span %d: node 9 never grew the indexed range", s.root.memo.span)
	}
	if len(s.root.memo.wide) == 0 {
		t.Error("no header reached the overflow list")
	}
}

// TestHeaderMemoLateWiring: a Hide and a subscription, each added after a
// dispatch of the header, take effect on the next one, on both sides of the
// indexed range.
func TestHeaderMemoLateWiring(t *testing.T) {
	for _, node := range []ta.NodeID{1, 70} {
		t.Run(fmt.Sprintf("node%d", node), func(t *testing.T) {
			s := New()
			first, late := &sink{name: "first"}, &sink{name: "late"}
			s.Add(first)
			s.Add(late)
			s.ConnectName("PING", first)
			ping := ta.Action{Name: "PING", Node: node, Peer: ta.NoNode, Kind: ta.KindOutput}
			s.Inject(ping)
			s.Hide(named("PING"))
			s.Inject(ping)
			s.ConnectName("PING", late)
			s.Inject(ping)
			if first.got != 3 || late.got != 1 {
				t.Errorf("deliveries: first %d, late %d; want 3, 1", first.got, late.got)
			}
			var kinds []ta.Kind
			for _, e := range s.Trace() {
				kinds = append(kinds, e.Action.Kind)
			}
			if want := []ta.Kind{ta.KindOutput, ta.KindInternal, ta.KindInternal}; !slices.Equal(kinds, want) {
				t.Errorf("trace kinds = %v, want %v", kinds, want)
			}
		})
	}
}
