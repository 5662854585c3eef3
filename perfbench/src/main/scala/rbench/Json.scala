package rbench

/** Just enough JSON writing for the result line and the span file. */
object Json {

  /** Already-rendered JSON, embedded as is. */
  final case class Raw(json: String)

  def obj(kvs: (String, Any)*): String =
    kvs.map { case (k, v) => quote(k) + ":" + value(v) }.mkString("{", ",", "}")

  def value(v: Any): String = v match {
    case Raw(j)                       => j
    case null                         => "null"
    case s: String                    => quote(s)
    case b: Boolean                   => b.toString
    case d: Double                    => if (d.isNaN || d.isInfinite) "null" else d.toString
    case i: Int                       => i.toString
    case l: Long                      => l.toString
    case o: Option[_]                 => o.map(value).getOrElse("null")
    case m: scala.collection.Map[_, _] => obj(m.toSeq.map { case (k, x) => k.toString -> x }: _*)
    case s: Iterable[_]               => s.map(value).mkString("[", ",", "]")
    case other                        => quote(other.toString)
  }

  def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    (b += '"').toString
  }
}
