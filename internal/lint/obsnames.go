package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"regexp"
	"strconv"
	"strings"
)

// obsnames enforces the telemetry naming contract on every metric
// registered with the internal/obs registry:
//
//   - the name must be a compile-time string literal (a name computed at
//     runtime cannot be audited, and dynamic names explode cardinality);
//   - it must be snake_case with at least two segments, the first being
//     the owning component's prefix (netd_*, core_*, audit_*, sim_*...),
//     so /metrics groups by subsystem;
//   - each name is registered at exactly one call site across the whole
//     tree. The obs.Registry deliberately tolerates re-registration at
//     runtime (shared registries), which is precisely why two call sites
//     silently aliasing one counter is a bug the linter must catch.
//
// The registration methods watched are Counter, Gauge, Histogram and
// their *Vec variants on obs.Registry.
//
// The same contract, minus the component prefix, applies to span names
// passed to span.Tracer.Start/StartRoot: a span name is the analyzer's
// key for the convergence pipeline stage (`mifo-inspect spans` groups by it), so it
// must be a compile-time snake_case literal with a single call site —
// two sites sharing "fib_commit" would silently merge two distinct
// stages in every latency breakdown. Span names live in their own
// namespace: a metric and a span may share a name.
//
// Time-series names passed to tsdb.Store.Series/SeriesVec follow the
// full metric contract (literal, prefixed snake_case, single site) plus
// one more rule: a tsdb series may not reuse a metric or span name.
// Series dumps and /metrics land in the same dashboards, and one name
// meaning a counter on one page and a ring of samples on another is a
// debugging trap the registries cannot catch at runtime.

// ObsnamesConfig parameterizes the obsnames analyzer.
type ObsnamesConfig struct {
	// RegistryPkgSuffix locates the registry type (path-suffix match).
	RegistryPkgSuffix string
	// RegistryTypeName is the registry's type name.
	RegistryTypeName string
	// PrefixOverrides maps a registering package's import-path suffix to
	// the metric prefixes it may use, when they differ from the package
	// name (package main cannot be a prefix).
	PrefixOverrides map[string][]string
	// SpanPkgSuffix locates the span tracer type (path-suffix match).
	// Empty disables span-name checking.
	SpanPkgSuffix string
	// SpanTypeName is the tracer's type name.
	SpanTypeName string
	// TSDBPkgSuffix locates the time-series store type (path-suffix
	// match). Empty disables tsdb series-name checking.
	TSDBPkgSuffix string
	// TSDBTypeName is the store's type name.
	TSDBTypeName string
}

// DefaultObsnamesConfig covers repro's internal/obs registry.
func DefaultObsnamesConfig() ObsnamesConfig {
	return ObsnamesConfig{
		RegistryPkgSuffix: "internal/obs",
		RegistryTypeName:  "Registry",
		PrefixOverrides: map[string][]string{
			// The simulator binary registers its experiment metrics as sim_*.
			"cmd/mifo-sim": {"sim"},
			// The obs package's own self-metrics, if it ever grows any.
			"internal/obs": {"obs"},
		},
		SpanPkgSuffix: "internal/obs/span",
		SpanTypeName:  "Tracer",
		TSDBPkgSuffix: "internal/obs/tsdb",
		TSDBTypeName:  "Store",
	}
}

var registryMethods = map[string]bool{
	"Counter": true, "Gauge": true, "Histogram": true,
	"CounterVec": true, "GaugeVec": true, "HistogramVec": true,
}

var tracerMethods = map[string]bool{
	"Start": true, "StartRoot": true,
}

var tsdbMethods = map[string]bool{
	"Series": true, "SeriesVec": true,
}

// metricNameRE: lowercase snake_case, >= 2 segments, digits allowed after
// the first character of a segment.
var metricNameRE = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)+$`)

const obsnamesFactKey = "obsnames"

type obsnamesFacts struct {
	sites     map[string][]token.Position // metric name -> registration sites
	spanSites map[string][]token.Position // span name -> Start/StartRoot sites
	tsdbSites map[string][]token.Position // tsdb series name -> Series/SeriesVec sites
}

func newObsnamesFacts() any {
	return &obsnamesFacts{
		sites:     map[string][]token.Position{},
		spanSites: map[string][]token.Position{},
		tsdbSites: map[string][]token.Position{},
	}
}

// Obsnames returns the metric-naming analyzer.
func Obsnames(cfg ObsnamesConfig) *Analyzer {
	a := &Analyzer{
		Name: "obsnames",
		Doc:  "obs metric and span names must be snake_case literals with a single registration site per name",
	}
	a.Run = func(pass *Pass) { runObsnames(pass, cfg) }
	a.Finish = finishObsnames
	return a
}

func runObsnames(pass *Pass, cfg ObsnamesConfig) {
	facts := pass.State.Get(obsnamesFactKey, newObsnamesFacts).(*obsnamesFacts)
	info := pass.Pkg.TypesInfo

	allowedPrefixes := []string{pass.Pkg.Name}
	for suffix, prefixes := range cfg.PrefixOverrides {
		if pathHasSuffix(pass.Pkg.PkgPath, suffix) {
			allowedPrefixes = prefixes
			break
		}
	}

	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			isMetric := registryMethods[sel.Sel.Name]
			isSpan := tracerMethods[sel.Sel.Name] && cfg.SpanPkgSuffix != ""
			isTSDB := tsdbMethods[sel.Sel.Name] && cfg.TSDBPkgSuffix != ""
			if !isMetric && !isSpan && !isTSDB {
				return true
			}
			recv, ok := info.Types[sel.X]
			if !ok {
				return true
			}
			switch {
			case isMetric && typeIs(recv.Type, cfg.RegistryPkgSuffix, cfg.RegistryTypeName):
				isSpan, isTSDB = false, false
			case isSpan && typeIs(recv.Type, cfg.SpanPkgSuffix, cfg.SpanTypeName):
				isMetric, isTSDB = false, false
			case isTSDB && typeIs(recv.Type, cfg.TSDBPkgSuffix, cfg.TSDBTypeName):
				isMetric, isSpan = false, false
			default:
				return true
			}
			kind, typeName := "metric", cfg.RegistryTypeName
			switch {
			case isSpan:
				kind, typeName = "span", cfg.SpanTypeName
			case isTSDB:
				kind, typeName = "tsdb series", cfg.TSDBTypeName
			}
			nameArg := call.Args[0]
			tv, ok := info.Types[nameArg]
			if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
				pass.Reportf(nameArg.Pos(), "%s name passed to %s.%s must be a compile-time string literal", kind, typeName, sel.Sel.Name)
				return true
			}
			name, err := strconv.Unquote(tv.Value.ExactString())
			if err != nil {
				name = strings.Trim(tv.Value.ExactString(), `"`)
			}
			if !metricNameRE.MatchString(name) {
				if isSpan {
					pass.Reportf(nameArg.Pos(), "span name %q is not snake_case with >= 2 segments (want e.g. %q)", name, "fib_commit")
				} else {
					pass.Reportf(nameArg.Pos(), "%s name %q is not prefixed snake_case (want e.g. %q)", kind, name, allowedPrefixes[0]+"_total")
				}
				return true
			}
			if isSpan {
				// Span names are a repo-wide stage vocabulary (mifo-inspect
				// spans aggregates by them across subsystems), so no component
				// prefix is required — only literal + single site.
				facts.spanSites[name] = append(facts.spanSites[name], pass.Pkg.Fset.Position(nameArg.Pos()))
				return true
			}
			prefix, _, _ := strings.Cut(name, "_")
			okPrefix := false
			for _, p := range allowedPrefixes {
				if prefix == p {
					okPrefix = true
					break
				}
			}
			if !okPrefix {
				pass.Reportf(nameArg.Pos(), "%s name %q must carry this component's prefix %v so exposition groups by subsystem", kind, name, allowedPrefixes)
				return true
			}
			if isTSDB {
				facts.tsdbSites[name] = append(facts.tsdbSites[name], pass.Pkg.Fset.Position(nameArg.Pos()))
				return true
			}
			facts.sites[name] = append(facts.sites[name], pass.Pkg.Fset.Position(nameArg.Pos()))
			return true
		})
	}
}

// finishObsnames reports names registered from more than one call site.
// The first site (in position order) is treated as the owner; every other
// site is flagged. Metric and span names are separate namespaces, each
// with its own single-site rule; tsdb series names additionally may not
// collide with either.
func finishObsnames(s *State, report func(Diagnostic)) {
	facts := s.Get(obsnamesFactKey, newObsnamesFacts).(*obsnamesFacts)
	reportDups(facts.sites, "metric %q is already registered at %s:%d: two call sites silently alias one series", report)
	reportDups(facts.spanSites, "span %q is already started at %s:%d: two call sites silently merge two pipeline stages", report)
	reportDups(facts.tsdbSites, "tsdb series %q is already registered at %s:%d: two call sites silently alias one series", report)
	for name, ps := range facts.tsdbSites {
		if owner, ok := facts.sites[name]; ok {
			reportCollision(ps, name, "metric registered", owner[0], report)
		}
		if owner, ok := facts.spanSites[name]; ok {
			reportCollision(ps, name, "span started", owner[0], report)
		}
	}
}

// reportCollision flags every tsdb registration of a name another
// namespace already owns.
func reportCollision(ps []token.Position, name, what string, owner token.Position, report func(Diagnostic)) {
	for _, p := range ps {
		report(Diagnostic{
			Pos: p,
			Message: fmt.Sprintf("tsdb series %q collides with the %s at %s:%d: series dumps and /metrics share one dashboard namespace",
				name, what, owner.Filename, owner.Line),
			Analyzer: "obsnames",
		})
	}
}

func reportDups(sites map[string][]token.Position, format string, report func(Diagnostic)) {
	for name, ps := range sites {
		if len(ps) < 2 {
			continue
		}
		owner := ps[0]
		for _, p := range ps[1:] {
			if p.Filename == owner.Filename && p.Line == owner.Line {
				continue
			}
			report(Diagnostic{
				Pos:      p,
				Message:  fmt.Sprintf(format, name, owner.Filename, owner.Line),
				Analyzer: "obsnames",
			})
		}
	}
}
