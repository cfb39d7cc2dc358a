/**
 * @file
 * Figure intermediate representation: the machine-readable form of
 * every report the simulator renders.  Builders (system/report.cc)
 * turn Sweeps into Figures — pure numeric data plus labels — and the
 * emitters here turn a Figure into text-table, JSON or CSV output.
 * The table emitter reproduces the historical hand-rolled renderers
 * byte-for-byte (tests/golden/reports/ pins it).
 */

#ifndef WASTESIM_METRICS_FIGURE_HH
#define WASTESIM_METRICS_FIGURE_HH

#include <string>
#include <vector>

namespace wastesim
{

/** One data row: label cells plus numeric cells (NaN = no value,
 *  rendered "-" in tables and null in JSON). */
struct FigureRow
{
    std::vector<std::string> labels;
    std::vector<double> values;
};

/** One table of a figure (stacked figures carry one per benchmark). */
struct FigureTable
{
    std::string name;                   //!< group name (benchmark)
    std::vector<std::string> labelCols; //!< header of label columns
    std::vector<std::string> valueCols; //!< header of value columns
    std::vector<FigureRow> rows;

    /** True: values are fractions rendered as percentages ("39.5%");
     *  false: plain numbers ("%.6g"). */
    bool percent = true;
};

/** A complete report figure. */
struct Figure
{
    std::string id;      //!< report name ("fig5.1a", "placement", ...)
    std::string title;   //!< heading line of the table rendering
    std::string unit;    //!< what the values measure
    std::string context; //!< mesh/topology qualifier (multi-mesh runs)

    /**
     * Diagnostic note replacing the tables ("sweep lacks MESI"); in
     * table mode a noted figure renders the note alone.
     */
    std::string note;

    /** Blank line after every table (the stacked-figure style). */
    bool spaced = true;

    std::vector<FigureTable> tables;
};

/** Output format of the report emitters. */
enum class ReportFormat
{
    Table,
    Json,
    Csv
};

/** Parse "table" / "json" / "csv"; false on unknown names. */
bool reportFormatFromName(const std::string &s, ReportFormat &out);

/** Render @p f in @p fmt.  Table output is byte-identical to the
 *  legacy hand-rolled renderers for the paper figures. */
std::string renderFigure(const Figure &f,
                         ReportFormat fmt = ReportFormat::Table);

} // namespace wastesim

#endif // WASTESIM_METRICS_FIGURE_HH
