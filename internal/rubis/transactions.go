// Package rubis models the paper's target application: RUBiS, the
// three-tier auction-site prototype (Apache httpd → JBoss → MySQL) driven
// by closed-loop client emulators (§5.1). The model reproduces the pieces
// the tracing evaluation depends on:
//
//   - httpd prefork worker processes, one per client connection
//     (keep-alive), each holding an on-demand backend connection to JBoss;
//   - JBoss thread-per-connection workers bounded by MaxThreads (default
//     40 — the §5.4.1 misconfiguration), held for an idle window after each
//     response the way mod_jk/AJP connections pin servlet threads;
//   - MySQL connection threads, one per JBoss-side connection;
//   - the two standard workload mixes (Browse_Only and Default/read-write)
//     with RUBiS's three-stage session: up ramp, runtime, down ramp;
//   - fault injectors for the §5.4.2 abnormal cases (EJB_Delay,
//     DataBase_Lock, EJB_Network).
package rubis

import "time"

// Transaction is one RUBiS request type with its per-tier resource profile.
// Demands are means; the deployment draws per-request values around them.
type Transaction struct {
	Name string
	// Static requests are served entirely by httpd (images, home page).
	Static bool
	// HTTPDemand is httpd CPU to parse/dispatch; RespDemand is httpd CPU to
	// assemble/write the response.
	HTTPDemand time.Duration
	RespDemand time.Duration
	// AppDemand is JBoss CPU before the first DB query; AppPost after the
	// last one; AppPerQuery between queries.
	AppDemand   time.Duration
	AppPost     time.Duration
	AppPerQuery time.Duration
	// Queries is the number of sequential DB round trips.
	Queries int
	// DBDemand is MySQL CPU per query.
	DBDemand time.Duration
	// UsesItems marks transactions touching the items table — the ones the
	// §5.4.2 DataBase_Lock fault serialises.
	UsesItems bool
	// Message sizes in bytes.
	ReqSize       int64 // client -> httpd
	FwdSize       int64 // httpd -> jboss
	QuerySize     int64 // jboss -> mysql
	QueryRespSize int64 // mysql -> jboss
	AppRespSize   int64 // jboss -> httpd
	RespSize      int64 // httpd -> client
	// Mix weights.
	BrowseWeight  float64
	DefaultWeight float64
}

// Mix selects a workload mix (§5.1): Browse_Only is read-only; Default is
// the read-write mix.
type Mix int

// Workload mixes.
const (
	BrowseOnly Mix = iota + 1
	Default
)

// String implements fmt.Stringer.
func (m Mix) String() string {
	if m == Default {
		return "Default"
	}
	return "Browse_Only"
}

// Transactions is the RUBiS-like transaction table. Weights approximate the
// RUBiS transition tables: ViewItem is the most frequent dynamic request
// (the one §5.4.1 analyses).
var Transactions = []Transaction{
	{
		Name: "Home", Static: true,
		HTTPDemand: 1200 * time.Microsecond, RespDemand: 500 * time.Microsecond,
		ReqSize: 220, RespSize: 1800,
		BrowseWeight: 8, DefaultWeight: 6,
	},
	{
		Name:       "BrowseCategories",
		HTTPDemand: 2200 * time.Microsecond, RespDemand: 700 * time.Microsecond,
		AppDemand: 2400 * time.Microsecond, AppPost: 1500 * time.Microsecond, AppPerQuery: 400 * time.Microsecond,
		Queries: 1, DBDemand: 2 * time.Millisecond,
		ReqSize: 260, FwdSize: 540, QuerySize: 180, QueryRespSize: 1400, AppRespSize: 2600, RespSize: 3400,
		BrowseWeight: 10, DefaultWeight: 8,
	},
	{
		Name:       "BrowseRegions",
		HTTPDemand: 2200 * time.Microsecond, RespDemand: 700 * time.Microsecond,
		AppDemand: 2400 * time.Microsecond, AppPost: 1500 * time.Microsecond, AppPerQuery: 400 * time.Microsecond,
		Queries: 1, DBDemand: 2 * time.Millisecond,
		ReqSize: 260, FwdSize: 540, QuerySize: 180, QueryRespSize: 1200, AppRespSize: 2400, RespSize: 3100,
		BrowseWeight: 6, DefaultWeight: 4,
	},
	{
		Name: "SearchItemsInCategory", UsesItems: true,
		HTTPDemand: 2600 * time.Microsecond, RespDemand: 900 * time.Microsecond,
		AppDemand: 3000 * time.Microsecond, AppPost: 1800 * time.Microsecond, AppPerQuery: 500 * time.Microsecond,
		Queries: 3, DBDemand: 2800 * time.Microsecond,
		ReqSize: 300, FwdSize: 620, QuerySize: 220, QueryRespSize: 2600, AppRespSize: 5200, RespSize: 6300,
		BrowseWeight: 14, DefaultWeight: 10,
	},
	{
		Name: "SearchItemsInRegion", UsesItems: true,
		HTTPDemand: 2600 * time.Microsecond, RespDemand: 900 * time.Microsecond,
		AppDemand: 3000 * time.Microsecond, AppPost: 1800 * time.Microsecond, AppPerQuery: 500 * time.Microsecond,
		Queries: 3, DBDemand: 2800 * time.Microsecond,
		ReqSize: 300, FwdSize: 620, QuerySize: 220, QueryRespSize: 2400, AppRespSize: 4800, RespSize: 5800,
		BrowseWeight: 8, DefaultWeight: 6,
	},
	{
		Name: "ViewItem", UsesItems: true,
		HTTPDemand: 2400 * time.Microsecond, RespDemand: 800 * time.Microsecond,
		AppDemand: 3000 * time.Microsecond, AppPost: 1800 * time.Microsecond, AppPerQuery: 450 * time.Microsecond,
		Queries: 2, DBDemand: 2500 * time.Microsecond,
		ReqSize: 280, FwdSize: 580, QuerySize: 200, QueryRespSize: 1800, AppRespSize: 3600, RespSize: 4400,
		BrowseWeight: 26, DefaultWeight: 18,
	},
	{
		Name:       "ViewUserInfo",
		HTTPDemand: 2300 * time.Microsecond, RespDemand: 750 * time.Microsecond,
		AppDemand: 2700 * time.Microsecond, AppPost: 1680 * time.Microsecond, AppPerQuery: 450 * time.Microsecond,
		Queries: 2, DBDemand: 2300 * time.Microsecond,
		ReqSize: 270, FwdSize: 560, QuerySize: 190, QueryRespSize: 1500, AppRespSize: 3000, RespSize: 3700,
		BrowseWeight: 7, DefaultWeight: 5,
	},
	{
		Name: "ViewBidHistory", UsesItems: true,
		HTTPDemand: 2500 * time.Microsecond, RespDemand: 850 * time.Microsecond,
		AppDemand: 2880 * time.Microsecond, AppPost: 1740 * time.Microsecond, AppPerQuery: 500 * time.Microsecond,
		Queries: 3, DBDemand: 2600 * time.Microsecond,
		ReqSize: 290, FwdSize: 600, QuerySize: 210, QueryRespSize: 2000, AppRespSize: 4000, RespSize: 4800,
		BrowseWeight: 5, DefaultWeight: 4,
	},
	// Read-write transactions: Default mix only.
	{
		Name:       "RegisterUser",
		HTTPDemand: 2700 * time.Microsecond, RespDemand: 900 * time.Microsecond,
		AppDemand: 3300 * time.Microsecond, AppPost: 1920 * time.Microsecond, AppPerQuery: 550 * time.Microsecond,
		Queries: 2, DBDemand: 3200 * time.Microsecond,
		ReqSize: 380, FwdSize: 700, QuerySize: 260, QueryRespSize: 600, AppRespSize: 2200, RespSize: 2800,
		BrowseWeight: 0, DefaultWeight: 3,
	},
	{
		Name: "RegisterItem", UsesItems: true,
		HTTPDemand: 2800 * time.Microsecond, RespDemand: 950 * time.Microsecond,
		AppDemand: 3600 * time.Microsecond, AppPost: 2040 * time.Microsecond, AppPerQuery: 550 * time.Microsecond,
		Queries: 3, DBDemand: 3500 * time.Microsecond,
		ReqSize: 460, FwdSize: 820, QuerySize: 300, QueryRespSize: 500, AppRespSize: 2000, RespSize: 2600,
		BrowseWeight: 0, DefaultWeight: 3,
	},
	{
		Name: "StoreBid", UsesItems: true,
		HTTPDemand: 2600 * time.Microsecond, RespDemand: 900 * time.Microsecond,
		AppDemand: 3360 * time.Microsecond, AppPost: 1920 * time.Microsecond, AppPerQuery: 550 * time.Microsecond,
		Queries: 4, DBDemand: 3 * time.Millisecond,
		ReqSize: 340, FwdSize: 660, QuerySize: 240, QueryRespSize: 700, AppRespSize: 2400, RespSize: 3000,
		BrowseWeight: 0, DefaultWeight: 7,
	},
	{
		Name: "StoreBuyNow", UsesItems: true,
		HTTPDemand: 2600 * time.Microsecond, RespDemand: 900 * time.Microsecond,
		AppDemand: 3360 * time.Microsecond, AppPost: 1920 * time.Microsecond, AppPerQuery: 550 * time.Microsecond,
		Queries: 4, DBDemand: 3 * time.Millisecond,
		ReqSize: 340, FwdSize: 660, QuerySize: 240, QueryRespSize: 700, AppRespSize: 2300, RespSize: 2900,
		BrowseWeight: 0, DefaultWeight: 3,
	},
	{
		Name:       "StoreComment",
		HTTPDemand: 2500 * time.Microsecond, RespDemand: 850 * time.Microsecond,
		AppDemand: 3120 * time.Microsecond, AppPost: 1800 * time.Microsecond, AppPerQuery: 500 * time.Microsecond,
		Queries: 3, DBDemand: 2900 * time.Microsecond,
		ReqSize: 420, FwdSize: 760, QuerySize: 280, QueryRespSize: 600, AppRespSize: 2100, RespSize: 2700,
		BrowseWeight: 0, DefaultWeight: 3,
	},
	{
		Name:       "AboutMe",
		HTTPDemand: 2700 * time.Microsecond, RespDemand: 950 * time.Microsecond,
		AppDemand: 3480 * time.Microsecond, AppPost: 1980 * time.Microsecond, AppPerQuery: 550 * time.Microsecond,
		Queries: 5, DBDemand: 2700 * time.Microsecond,
		ReqSize: 320, FwdSize: 640, QuerySize: 230, QueryRespSize: 1700, AppRespSize: 4400, RespSize: 5300,
		BrowseWeight: 0, DefaultWeight: 4,
	},
}

// weights returns the mix's weight vector over Transactions.
func weights(m Mix) []float64 {
	w := make([]float64, len(Transactions))
	for i := range Transactions {
		if m == Default {
			w[i] = Transactions[i].DefaultWeight
		} else {
			w[i] = Transactions[i].BrowseWeight
		}
	}
	return w
}
