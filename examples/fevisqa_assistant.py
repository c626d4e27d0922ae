"""FeVisQA assistant: free-form question answering over a data visualization.

Builds the paper's Figure 1 / Figure 8 scenario: given a DV query, its
database and a rendered chart, answer the four typical DV questions (meaning,
suitability, structure, values).  Ground-truth answers come from executing
the query; the ``repro.serving`` pipeline answers the same questions with its
zero-shot backend — all four submitted as one burst so the micro-batcher
groups them into a single batch.

Run with::

    python examples/fevisqa_assistant.py
"""

from __future__ import annotations

from repro.charts import build_chart, chart_properties
from repro.database import execute_query
from repro.datasets import build_database_pool
from repro.encoding import encode_result_table, encode_schema
from repro.serving import Pipeline, Request
from repro.vql import parse_dv_query, standardize_dv_query
from repro.vql.validation import is_query_compatible


def main() -> None:
    pool = build_database_pool(seed=0)
    database = pool.get("film_rank")
    query = standardize_dv_query(
        parse_dv_query(
            "visualize bar select film_market_estimation.type, count(film_market_estimation.type) "
            "from film_market_estimation join film on film_market_estimation.film_id = film.film_id "
            "group by film_market_estimation.type order by film_market_estimation.type asc"
        ),
        schema=database.schema,
    )

    result = execute_query(query, database)
    chart = build_chart(query, result=result)
    properties = chart_properties(chart)
    table_text = encode_result_table(result)

    pipeline = Pipeline.from_config(
        {"fevisqa": {"type": "heuristics"}, "pipeline": {"max_batch_size": 4}}
    )

    print("== DV query ==")
    print(query.to_text())
    print("\n== chart ==")
    print(pipeline.render_chart(chart))

    questions = [
        ("What is the meaning of this DV ?", "semantic"),
        ("Is this DV suitable for this given dataset ?", "suitability"),
        ("How many parts are there in the chart ?", "structure"),
        ("What is the value of the largest part in the chart ?", "value"),
    ]
    ground_truth = {
        "semantic": "a bar chart counting film market estimations for each estimation type",
        "suitability": "Yes" if is_query_compatible(query, database.schema) else "No",
        "structure": str(properties.num_parts),
        "value": str(properties.max_value),
    }

    print("\n== question answering (one micro-batched burst) ==")
    requests = [
        Request(task="fevisqa", question=question, chart=query, schema=database.schema, table=table_text, request_id=kind)
        for question, kind in questions
    ]
    responses = pipeline.serve(requests)
    for (question, kind), response in zip(questions, responses):
        print(f"\nQ: {question}")
        print(f"   ground truth     : {ground_truth[kind]}")
        print(f"   zero-shot answer : {response.output}")

    print("\n== serving statistics ==")
    print(f"batches : {len(requests)} requests in batches of <= {pipeline.config.max_batch_size}")
    repeat = pipeline.fevisqa(questions[0][0], chart=query, schema=database.schema, table=table_text)
    print(f"repeat of question 1 cached: {repeat.cached}")

    print("\n== schema used as context ==")
    print(encode_schema(database.schema))


if __name__ == "__main__":
    main()
