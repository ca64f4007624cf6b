package shadow

// SiteID names one interned access site (call kind + source location).
// IDs are dense and start at 0, so callers can keep parallel slices of
// per-site data (the detectors keep each site's operand ID there, which
// names the site in their fold keys).
type SiteID int32

type siteKey struct {
	kind uint8
	line int32
	file string
	fn   string
}

// Depot interns access sites so everything derived from a site (its
// rendered operand string, per-site statistics) is computed at most once
// per depot. The analyzer keeps one depot for a whole analysis, shared by
// both detectors, so a site seen in many regions and epochs is interned
// once. The zero Depot is not ready; use NewDepot.
type Depot struct {
	index map[siteKey]SiteID
}

// NewDepot returns an empty site depot.
func NewDepot() *Depot { return &Depot{index: make(map[siteKey]SiteID)} }

// Intern returns the ID of the site (kind, file, line, fn), allocating
// the next dense ID on first sight. fresh is true exactly when the site
// was not known before — the caller's cue to extend any parallel
// per-site slice.
func (d *Depot) Intern(kind uint8, file string, line int32, fn string) (id SiteID, fresh bool) {
	k := siteKey{kind: kind, line: line, file: file, fn: fn}
	if id, ok := d.index[k]; ok {
		return id, false
	}
	id = SiteID(len(d.index))
	d.index[k] = id
	return id, true
}

// Len returns the number of distinct interned sites.
func (d *Depot) Len() int { return len(d.index) }
