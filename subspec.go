package retina

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"retina/internal/aggregate"
	"retina/internal/filter"
)

// SubscriptionSpec is the declarative form of one subscription, as
// accepted by the admin API and the CLI tools' -subs flag: a name, a
// filter expression, a callback kind resolved by SubscriptionForKind,
// and an optional aggregation clause.
type SubscriptionSpec struct {
	Name     string `json:"name"`
	Filter   string `json:"filter"`
	Callback string `json:"callback"`
	// Aggregate attaches a declarative aggregation query to the
	// subscription (count/sum/distinct/topk over extracted keys, tumbling
	// windows); see aggregate.Spec for the clause fields.
	Aggregate *AggregateSpec `json:"aggregate,omitempty"`
}

// validateSpecs rejects specs that cannot possibly load: missing or
// duplicate names, empty or uncompilable filters, unknown callback
// kinds, and malformed aggregation clauses. Validation is per-spec so
// errors name the offending entry; filters compile against the default
// registry (user protocol modules are validated again, with the real
// registry, at Add time).
func validateSpecs(specs []SubscriptionSpec, where string) error {
	seen := make(map[string]int, len(specs))
	for i, s := range specs {
		if s.Name == "" {
			return fmt.Errorf("retina: spec %d in %s has no name", i, where)
		}
		if j, dup := seen[s.Name]; dup {
			return fmt.Errorf("retina: spec %d in %s duplicates name %q (first used by spec %d)", i, where, s.Name, j)
		}
		seen[s.Name] = i
		if s.Filter == "" {
			return fmt.Errorf("retina: spec %q in %s has an empty filter", s.Name, where)
		}
		if _, err := filter.Compile(s.Filter, filter.Options{}); err != nil {
			return fmt.Errorf("retina: spec %q in %s: %w", s.Name, where, err)
		}
		if _, err := SubscriptionForKind(s.Callback); err != nil {
			return fmt.Errorf("retina: spec %q in %s: %w", s.Name, where, err)
		}
		if s.Aggregate != nil {
			if err := aggregate.ValidateSpec(s.Aggregate); err != nil {
				return fmt.Errorf("retina: spec %q in %s: %w", s.Name, where, err)
			}
		}
	}
	return nil
}

// LoadSubscriptionSpecs reads a JSON array of subscription specs:
//
//	[
//	  {"name": "tls-coms", "filter": "tls.sni ~ '\\.com$'", "callback": "tls"},
//	  {"name": "dns", "filter": "udp.port = 53", "callback": "packets",
//	   "aggregate": {"op": "topk", "key": "src_ip", "window": "1s"}}
//	]
//
// Every spec is validated at load time — name present and unique,
// filter non-empty and compilable, callback kind known, aggregation
// clause well-formed — so a bad file fails before any subscription is
// added.
func LoadSubscriptionSpecs(path string) ([]SubscriptionSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var specs []SubscriptionSpec
	if err := json.Unmarshal(data, &specs); err != nil {
		return nil, fmt.Errorf("retina: parsing subscription specs %s: %w", path, err)
	}
	if err := validateSpecs(specs, path); err != nil {
		return nil, err
	}
	return specs, nil
}

// AddSubscriptionSpec adds one declarative spec to the running set,
// resolving the callback kind and compiling the aggregation clause (if
// any) against the subscription.
func (r *Runtime) AddSubscriptionSpec(s SubscriptionSpec) (SubscriptionInfo, error) {
	sub, err := SubscriptionForKind(s.Callback)
	if err != nil {
		return SubscriptionInfo{}, fmt.Errorf("spec %q: %w", s.Name, err)
	}
	return r.AddSubscriptionWithAggregate(s.Name, s.Filter, sub, s.Aggregate)
}

// AddSubscriptionSpecs adds every spec to the running set. Fails on the
// first bad spec; already-added specs stay.
func (r *Runtime) AddSubscriptionSpecs(specs []SubscriptionSpec) error {
	for _, s := range specs {
		if _, err := r.AddSubscriptionSpec(s); err != nil {
			return err
		}
	}
	return nil
}

// WriteSubscriptionTable renders subs as the subscription table the CLI
// tools print after a run: id, name, level, callback invocations,
// matched connections and the filter expression.
func WriteSubscriptionTable(w io.Writer, subs []SubscriptionInfo) {
	fmt.Fprintln(w, "id  name                  level       delivered  matched-conns  filter")
	for _, info := range subs {
		fmt.Fprintf(w, "%-3d %-21s %-10s %10d %14d  %s\n",
			info.ID, info.Name, info.Level, info.Delivered, info.MatchedConns, info.Filter)
	}
}
