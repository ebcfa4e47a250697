package serve

import (
	"sync"

	"tps/internal/gen"
	"tps/internal/netio"
)

// storedDesign is one uploaded design, kept only as its upload-time
// netio.State (an inline netlist gets an unshared one). Every job on it
// runs on private forks of that State (a race or search forks once per
// entrant), so warm re-runs skip the .tpn parse and no run can leave
// anything behind for the next. The only parts of the State written
// after upload are what it derives once for all its forks: the first
// job to fork builds the Steiner trees, and the first fork to query
// timing in a delay mode before any edit builds that mode's first
// timing pass; every later fork seeds its Steiner cache with the trees
// and installs the pass, read-only (scenario.ForkContext). An upload
// does neither. Jobs on one design still hold mu for their whole run:
// letting them overlap would multiply the design's live copies in
// memory.
type storedDesign struct {
	mu   sync.Mutex
	base *netio.State
	info DesignInfo
}

// designStore is the named-design registry.
type designStore struct {
	mu sync.Mutex
	m  map[string]*storedDesign
}

// put stores (or replaces) a design under name.
func (ds *designStore) put(name string, gd *gen.Design) DesignInfo {
	sd := &storedDesign{
		base: netio.CaptureDesign(gd),
		info: DesignInfo{Name: name, Gates: gd.NL.NumGates(), Nets: gd.NL.NumNets()},
	}
	ds.mu.Lock()
	ds.m[name] = sd
	ds.mu.Unlock()
	return sd.info
}

func (ds *designStore) get(name string) *storedDesign {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.m[name]
}

func (ds *designStore) list() []DesignInfo {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	infos := make([]DesignInfo, 0, len(ds.m))
	for _, sd := range ds.m {
		infos = append(infos, sd.info)
	}
	// Deterministic listing order.
	for i := 1; i < len(infos); i++ {
		for j := i; j > 0 && infos[j].Name < infos[j-1].Name; j-- {
			infos[j], infos[j-1] = infos[j-1], infos[j]
		}
	}
	return infos
}
